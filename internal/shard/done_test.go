package shard

import (
	"fmt"
	"sync"
	"testing"

	"regions/internal/apps/appkit"
)

// TestDoneFIFOOnPinned checks the completion-callback contract the serving
// driver depends on: pinned tasks on one shard deliver their Done calls in
// submission order, on the shard's goroutine, with contiguous monotone
// simulated-cycle windows.
func TestDoneFIFOOnPinned(t *testing.T) {
	e := NewEngine(WithShards(2))
	const n, home = 64, 1
	var mu sync.Mutex
	var order []int
	var results []TaskResult
	for i := 0; i < n; i++ {
		i := i
		e.Submit(Task{
			Name: fmt.Sprintf("t%d", i),
			Home: home + 1,
			Pin:  true,
			Run: func(env appkit.RegionEnv) uint32 {
				r := env.NewRegion()
				p := env.Ralloc(r, 16, env.SizeCleanup(16))
				env.DeleteRegion(r)
				return uint32(p)
			},
			Done: func(res TaskResult) {
				mu.Lock()
				order = append(order, i)
				results = append(results, res)
				mu.Unlock()
			},
		})
	}
	e.Close()
	if len(order) != n {
		t.Fatalf("got %d Done calls, want %d", len(order), n)
	}
	var prevEnd uint64
	for k, i := range order {
		if i != k {
			t.Fatalf("Done order[%d] = task %d, want FIFO", k, i)
		}
		res := results[k]
		if res.Shard != home || res.Stolen {
			t.Errorf("task %d ran on shard %d (stolen=%v), want pinned to %d", i, res.Shard, res.Stolen, home)
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
}

// TestDoneSeesRunPanic checks that a panicking Run still invokes Done with
// the recorded error and a zero checksum.
func TestDoneSeesRunPanic(t *testing.T) {
	e := NewEngine(WithShards(1))
	var got TaskResult
	done := false
	e.Submit(Task{
		Name: "boom",
		Pin:  true,
		Run:  func(appkit.RegionEnv) uint32 { panic("kaput") },
		Done: func(res TaskResult) { got = res; done = true },
	})
	agg := e.Close()
	if !done {
		t.Fatal("Done not called for failed task")
	}
	if got.Err == nil || got.Checksum != 0 {
		t.Errorf("failed task result: err=%v checksum=%d, want error and 0", got.Err, got.Checksum)
	}
	if agg.Failures != 1 {
		t.Errorf("aggregate failures = %d, want 1", agg.Failures)
	}
}

// TestDonePanicRecorded checks that a panic inside Done itself is recovered
// and counted as a failure instead of killing the worker goroutine.
func TestDonePanicRecorded(t *testing.T) {
	e := NewEngine(WithShards(1))
	e.Submit(Task{
		Name: "done-boom",
		Run:  func(appkit.RegionEnv) uint32 { return 1 },
		Done: func(TaskResult) { panic("callback kaput") },
	})
	// A second task proves the worker survived the Done panic.
	ran := false
	e.Submit(Task{
		Name: "after",
		Run:  func(appkit.RegionEnv) uint32 { ran = true; return 2 },
	})
	agg := e.Close()
	if !ran {
		t.Error("worker did not survive a panicking Done callback")
	}
	if agg.Failures != 1 {
		t.Errorf("aggregate failures = %d, want 1 (the Done panic)", agg.Failures)
	}
}
