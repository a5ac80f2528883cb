package shard

import (
	"math/rand"
	"testing"

	"regions/internal/core"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// countSpans tallies matched span pairs per kind in a stream.
func countSpans(t *testing.T, events []trace.Event) map[trace.SpanKind]int {
	t.Helper()
	p, err := trace.BuildSpanProfile(events, 0)
	if err != nil {
		t.Fatalf("span profile: %v", err)
	}
	out := map[trace.SpanKind]int{}
	for _, s := range p.Track {
		out[s.Kind]++
	}
	for _, r := range p.Requests {
		for _, s := range r.Spans {
			out[s.Kind]++
		}
	}
	return out
}

// TestEngineSpansParity runs the same randomized mix with and without a
// span tracer. Under WithNoSteal placement is deterministic, so checksums
// AND per-shard cycle totals must be bit-identical (spans are host-side
// metadata); the close-time sweep drains must appear as sweep spans.
func TestEngineSpansParity(t *testing.T) {
	tasks := randomTasks(rand.New(rand.NewSource(7)), 300)
	run := func(spans bool) (Aggregate, []trace.Event) {
		opts := []Option{WithShards(4), WithNoSteal(), WithDeferredDelete(4, 8)}
		var tr *trace.Tracer
		if spans {
			tr = trace.New(1 << 16)
			opts = append(opts, WithSpanTracer(tr))
		}
		eng := NewEngine(opts...)
		submitAll(eng, tasks)
		agg := eng.Close()
		var evs []trace.Event
		if tr != nil {
			evs = tr.Events()
		}
		return agg, evs
	}
	on, evs := run(true)
	off, _ := run(false)
	if on.Checksum != off.Checksum {
		t.Fatalf("span tracer changed the checksum: %08x vs %08x", on.Checksum, off.Checksum)
	}
	if on.TotalCycles != off.TotalCycles || on.MakespanCycles != off.MakespanCycles {
		t.Fatalf("span tracer changed cycle totals: %d/%d vs %d/%d",
			on.TotalCycles, on.MakespanCycles, off.TotalCycles, off.MakespanCycles)
	}
	if counts := countSpans(t, evs); counts[trace.SpanSweep] == 0 {
		t.Error("deferred run with close-time drains emitted no sweep spans")
	}
}

// TestEngineStealSpans checks a stealing run emits one steal-stall span per
// recorded steal, and that the checksum (the placement-independent gate)
// matches a traced no-steal run of the same mix.
func TestEngineStealSpans(t *testing.T) {
	tasks := randomTasks(rand.New(rand.NewSource(11)), 300)
	tr := trace.New(1 << 16)
	eng := NewEngine(WithShards(4), WithSpanTracer(tr), WithDeferredDelete(4, 8))
	submitAll(eng, tasks)
	agg := eng.Close()

	ref := NewEngine(WithShards(4), WithNoSteal())
	submitAll(ref, tasks)
	if want := ref.Close().Checksum; agg.Checksum != want {
		t.Fatalf("traced stealing checksum %08x, no-steal reference %08x", agg.Checksum, want)
	}
	counts := countSpans(t, tr.Events())
	if uint64(counts[trace.SpanStealStall]) != agg.Steals {
		t.Fatalf("%d steal-stall spans for %d steals", counts[trace.SpanStealStall], agg.Steals)
	}
}

// TestEngineMigrateSpans checks a forced migration brackets its export and
// import pauses in migrate spans on the two shards involved.
func TestEngineMigrateSpans(t *testing.T) {
	tr := trace.New(1 << 12)
	eng := NewEngine(WithShards(2), WithNoSteal(), WithSpanTracer(tr))
	registerSizeCleanups(t, eng, 8)
	var r *core.Region
	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		r, _ = buildChain(rt, 40)
	}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := eng.MigrateRegion(r, 0, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	eng.Close()
	p, err := trace.BuildSpanProfile(tr.Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	byShard := map[int]int{}
	for _, s := range p.Track {
		if s.Kind == trace.SpanMigrate {
			byShard[s.Shard]++
		}
	}
	if byShard[0] == 0 || byShard[1] == 0 {
		t.Fatalf("migrate spans per shard = %v, want both sides bracketed", byShard)
	}
}

// TestEngineDroppedMetric checks Close publishes regions_trace_dropped_total
// when the span ring wrapped, and leaves the series absent when it did not.
func TestEngineDroppedMetric(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := trace.New(2) // tiny ring: the two drain spans alone wrap it
	eng := NewEngine(WithShards(2), WithDeferredDelete(2, 4),
		WithMetrics(reg), WithSpanTracer(tr))
	submitAll(eng, randomTasks(rand.New(rand.NewSource(3)), 200))
	eng.Close()
	if tr.Stats().Dropped == 0 {
		t.Skip("ring did not wrap; nothing to verify")
	}
	v, ok := reg.Snapshot().Counter("regions_trace_dropped_total")
	if !ok || v != tr.Stats().Dropped {
		t.Fatalf("regions_trace_dropped_total = %d (present %v), want %d",
			v, ok, tr.Stats().Dropped)
	}
}
