package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/metrics"
)

// TestRunWindowsContiguousOnHome checks the contract a serving driver
// depends on: tasks run on one home shard return in call order, each on
// that shard, with contiguous, monotone simulated-cycle windows.
func TestRunWindowsContiguousOnHome(t *testing.T) {
	e := NewEngine(WithShards(2))
	const n, home = 64, 1
	var prevEnd uint64
	for i := 0; i < n; i++ {
		res := e.Run(Task{
			Name: fmt.Sprintf("t%d", i),
			Home: home + 1,
			Run: func(env appkit.RegionEnv) uint32 {
				r := env.NewRegion()
				p := env.Ralloc(r, 16, env.SizeCleanup(16))
				env.DeleteRegion(r)
				return uint32(p)
			},
		})
		if res.Shard != home {
			t.Errorf("task %d ran on shard %d, want its home %d", i, res.Shard, home)
		}
		if res.Err != nil || res.Checksum == 0 {
			t.Errorf("task %d: err=%v checksum=%d", i, res.Err, res.Checksum)
		}
		if res.StartCycles != prevEnd {
			t.Errorf("task %d starts at cycle %d, previous ended at %d — windows must be contiguous",
				i, res.StartCycles, prevEnd)
		}
		if res.EndCycles <= res.StartCycles {
			t.Errorf("task %d consumed no cycles: [%d, %d]", i, res.StartCycles, res.EndCycles)
		}
		prevEnd = res.EndCycles
	}
	if agg := e.Close(); agg.Tasks != n || agg.PerShard[home].SimCycles != prevEnd {
		t.Errorf("closed with %d tasks and shard %d at cycle %d, want %d and %d",
			agg.Tasks, home, agg.PerShard[home].SimCycles, n, prevEnd)
	}
}

// TestRunSeesTaskPanic checks that a panicking task returns the recorded
// error and a zero checksum, and counts as a failure.
func TestRunSeesTaskPanic(t *testing.T) {
	e := NewEngine(WithShards(1))
	got := e.Run(Task{
		Name: "boom",
		Run:  func(appkit.RegionEnv) uint32 { panic("kaput") },
	})
	if got.Err == nil || got.Checksum != 0 {
		t.Errorf("failed task result: err=%v checksum=%d, want error and 0", got.Err, got.Checksum)
	}
	if agg := e.Close(); agg.Failures != 1 {
		t.Errorf("aggregate failures = %d, want 1", agg.Failures)
	}
}

// TestRunShardsFromTheirOwnGoroutines drives each shard from its own
// goroutine at once, as internal/serve does, while a scraper reads the
// engine's metrics; run under -race in CI. Each shard's tally and the
// summed checksum must match the same tasks run from one goroutine.
func TestRunShardsFromTheirOwnGoroutines(t *testing.T) {
	const shards, perShard = 4, 32
	run := func(concurrent bool) Aggregate {
		reg := metrics.NewRegistry()
		eng := NewEngine(WithShards(shards), WithMetrics(reg), WithHeapProfileEvery(8))
		stop := make(chan struct{})
		scraped := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					scraped <- nil
					return
				default:
					if err := metrics.WritePrometheus(bytes.NewBuffer(nil), reg.Snapshot()); err != nil {
						scraped <- err
						return
					}
					eng.HeapReports()
				}
			}
		}()
		drive := func(s int) {
			for i := 0; i < perShard; i++ {
				tk := simpleTask(uint32(s*perShard + i))
				tk.Home = s + 1
				eng.Run(tk)
			}
		}
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			if !concurrent {
				drive(s)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				drive(s)
			}()
		}
		wg.Wait()
		agg := eng.Close()
		close(stop)
		if err := <-scraped; err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			if err := eng.Env(s).Runtime().Verify(); err != nil {
				t.Fatalf("shard %d invariants: %v", s, err)
			}
		}
		return agg
	}
	want, got := run(false), run(true)
	if got.Checksum != want.Checksum || got.Failures != 0 {
		t.Fatalf("concurrent run: checksum %#x with %d failures, want %#x and 0", got.Checksum, got.Failures, want.Checksum)
	}
	for s := range want.PerShard {
		if g, w := got.PerShard[s], want.PerShard[s]; g.Tasks != w.Tasks || g.SimCycles != w.SimCycles {
			t.Errorf("shard %d: %d tasks in %d cycles, want %d in %d", s, g.Tasks, g.SimCycles, w.Tasks, w.SimCycles)
		}
	}
}

// TestRunAfterClosePanics: running a task on a closed engine panics, as
// submitting one does.
func TestRunAfterClosePanics(t *testing.T) {
	e := NewEngine()
	e.Close()
	for name, call := range map[string]func(){
		"Run":    func() { e.Run(simpleTask(1)) },
		"Submit": func() { e.Submit(simpleTask(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			call()
		}()
	}
}
