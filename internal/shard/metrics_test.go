package shard

import (
	"bytes"
	"fmt"
	"testing"

	"regions/internal/core"
	"regions/internal/metrics"
)

// TestSharedGaugesReadTheirSum: a gauge every shard reports reads as the
// total over shards, through a resize and the reuse that follows it. Two
// shards each park four 64-byte string blocks and leave sweep debt behind a
// deferred delete; a third shard joins; then shard 0 reuses its blocks.
func TestSharedGaugesReadTheirSum(t *testing.T) {
	reg := metrics.NewRegistry()
	eng := NewEngine(WithShards(2), WithMetrics(reg), WithDeferredDelete(0, 0))
	defer eng.Close()
	gauge := func(name string) int64 {
		v, _ := reg.Snapshot().Gauge(name)
		return v
	}
	sum := func(read func(rt *core.Runtime) int64) int64 {
		var total int64
		for i := 0; i < eng.Shards(); i++ {
			if err := pinnedDo(eng, i, func(rt *core.Runtime) { total += read(rt) }); err != nil {
				t.Fatal(err)
			}
		}
		return total
	}
	const pool = `regions_str_pool_blocks{class="64"}`

	kept := make([]*core.Region, 2)
	for i := range kept {
		if err := pinnedDo(eng, i, func(rt *core.Runtime) {
			kept[i] = rt.NewRegion()
			var blocks []core.Ptr
			for j := 0; j < 4; j++ {
				blocks = append(blocks, rt.RstrAlloc(kept[i], 64))
			}
			for _, p := range blocks {
				rt.RstrFree(kept[i], p, 64)
			}
			dead := rt.NewRegion()
			rt.RstrAlloc(dead, 3*4096)
			rt.DeleteRegion(dead)
		}); err != nil {
			t.Fatal(err)
		}
	}
	debt := sum(func(rt *core.Runtime) int64 { return int64(rt.SweepDebt()) })
	if debt == 0 {
		t.Fatal("deferred deletes left no sweep debt")
	}
	if got := gauge("regions_sweep_debt_pages"); got != debt {
		t.Errorf("regions_sweep_debt_pages = %d, shards carry %d", got, debt)
	}

	if err := eng.Resize(3); err != nil {
		t.Fatal(err)
	}
	mapped := sum(func(rt *core.Runtime) int64 { return int64(rt.Space().MappedBytes()) })
	if got := gauge("regions_mem_mapped_bytes"); got != mapped {
		t.Errorf("regions_mem_mapped_bytes = %d, shards mapped %d", got, mapped)
	}
	if got := gauge(pool); got != 8 {
		t.Errorf("%s = %d after the resize, want 8", pool, got)
	}
	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		for j := 0; j < 4; j++ {
			rt.RstrAlloc(kept[0], 64)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := gauge(pool); got != 4 {
		t.Errorf("%s = %d after shard 0 reused its blocks, want 4", pool, got)
	}
}

// TestPublishDoesNotAllocate: a worker publishes its counts after every
// task, so the copy must cost no Go allocation.
func TestPublishDoesNotAllocate(t *testing.T) {
	eng := NewEngine(WithMetrics(metrics.NewRegistry()))
	defer eng.Close()
	w := eng.workers()[0]
	if n := testing.AllocsPerRun(100, func() { w.publish(eng.board, 1) }); n != 0 {
		t.Errorf("publish costs %.1f allocations, want 0", n)
	}
}

// TestMetricsUnderConcurrentScrape is the observability race test: four
// shards churn allocations while a scraper loop snapshots the shared
// registry and renders it, exactly what a live /metrics endpoint does
// mid-run. Run under -race in CI. After Close, the shards' site counts sum
// to every allocation.
func TestMetricsUnderConcurrentScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	eng := NewEngine(WithShards(4), WithMetrics(reg), WithHeapProfileEvery(8))

	stop := make(chan struct{})
	scraperDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
				if err := metrics.WritePrometheus(bytes.NewBuffer(nil), reg.Snapshot()); err != nil {
					scraperDone <- err
					return
				}
				eng.HeapReports() // concurrent heap-profile reads must be safe too
			}
		}
	}()

	const tasks = 256
	for i := 0; i < tasks; i++ {
		eng.Submit(simpleTask(uint32(i)))
	}
	agg := eng.Close()
	close(stop)
	if err := <-scraperDone; err != nil {
		t.Fatal(err)
	}
	if agg.Failures != 0 {
		t.Fatalf("%d task failures", agg.Failures)
	}

	snap := reg.Snapshot()
	if got := snap.CounterSum("regions_shard_tasks_total"); got != tasks {
		t.Errorf("shard task counters sum to %d, want %d", got, tasks)
	}
	// Each simple task performs 32 rallocs.
	if got, _ := snap.Counter("regions_core_allocs_total"); got != tasks*32 {
		t.Errorf("regions_core_allocs_total = %d, want %d", got, tasks*32)
	}
	if got, _ := snap.Counter("regions_core_regions_created_total"); got != tasks {
		t.Errorf("regions created = %d, want %d", got, tasks)
	}
	if got, _ := snap.Counter(`regions_alloc_site_objects_total{site="size16"}`); got != tasks*32 {
		t.Errorf("size16 site objects = %d, want %d", got, tasks*32)
	}
	if got, _ := snap.Counter(`regions_alloc_site_bytes_total{site="size16"}`); got != tasks*32*16 {
		t.Errorf("size16 site bytes = %d, want %d", got, tasks*32*16)
	}
	if v, ok := snap.Gauge("regions_shard_makespan_cycles"); !ok || v <= 0 {
		t.Errorf("makespan gauge = %d,%v after Close", v, ok)
	}
	if v, ok := snap.Gauge("regions_shard_utilization_pct"); !ok || v <= 0 || v > 100 {
		t.Errorf("utilization gauge = %d,%v, want in (0,100]", v, ok)
	}
	for i := 0; i < eng.Shards(); i++ {
		name := fmt.Sprintf(`regions_shard_queue_depth{shard="%d"}`, i)
		if v, _ := snap.Gauge(name); v != 0 {
			t.Errorf("shard %d queue depth = %d after drain, want 0", i, v)
		}
	}
	if reps := eng.HeapReports(); len(reps) != eng.Shards() {
		t.Errorf("HeapReports returned %d profiles, want %d", len(reps), eng.Shards())
	} else {
		for _, rep := range reps {
			if rep.Origin == "" || rep.SchemaVersion != metrics.HeapSchemaVersion {
				t.Errorf("heap report origin=%q schema=%d", rep.Origin, rep.SchemaVersion)
			}
		}
	}
}

// TestQueueDepthCountsHeldTasks: an unpinned task waits on its home shard
// until Close, and the shard's queue-depth gauge counts it while it waits.
func TestQueueDepthCountsHeldTasks(t *testing.T) {
	reg := metrics.NewRegistry()
	eng := NewEngine(WithShards(2), WithMetrics(reg))
	for i := 0; i < 3; i++ {
		eng.Submit(simpleTask(uint32(i))) // round-robin: two on shard 0, one on shard 1
	}
	depths := func() [2]int64 {
		snap := reg.Snapshot()
		var d [2]int64
		for i := range d {
			d[i], _ = snap.Gauge(fmt.Sprintf(`regions_shard_queue_depth{shard="%d"}`, i))
		}
		return d
	}
	if got := depths(); got != [2]int64{2, 1} {
		t.Errorf("queue depths %v before Close, want [2 1]", got)
	}
	if got := reg.Snapshot().CounterSum("regions_shard_tasks_total"); got != 0 {
		t.Errorf("%d unpinned tasks ran before Close", got)
	}
	if agg := eng.Close(); agg.Tasks != 3 {
		t.Fatalf("ran %d tasks, want 3", agg.Tasks)
	}
	if got := depths(); got != [2]int64{0, 0} {
		t.Errorf("queue depths %v after Close, want [0 0]", got)
	}
}
