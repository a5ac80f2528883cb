package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"regions/internal/apps/appkit"
)

// idTask wraps an integer so conservation tests can checksum what crossed
// the deque without running real region work.
func idTask(id uint32) Task {
	return Task{Run: func(appkit.RegionEnv) uint32 { return id }}
}

func runID(t Task) uint32 { return t.Run(nil) }

func TestDequeSequentialSemantics(t *testing.T) {
	d := newDeque(4)
	for i := uint32(0); i < 4; i++ {
		if !d.push(idTask(i)) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if d.push(idTask(99)) {
		t.Fatal("push succeeded on a full deque")
	}
	if d.len() != 4 {
		t.Fatalf("len=%d, want 4", d.len())
	}
	// Owner pops the back: newest first.
	if tk, ok := d.popBack(); !ok || runID(tk) != 3 {
		t.Fatalf("popBack = %v %v, want task 3", tk, ok)
	}
	// Thief pops the front: oldest first.
	if tk, ok := d.popFront(); !ok || runID(tk) != 0 {
		t.Fatalf("popFront = %v %v, want task 0", tk, ok)
	}
	// push takes only what fits, and the ring wraps around head.
	for _, id := range []uint32{4, 5} {
		if !d.push(idTask(id)) {
			t.Fatalf("push %d failed below capacity", id)
		}
	}
	if d.push(idTask(6)) {
		t.Fatal("push succeeded on a full, wrapped deque")
	}
	for i, want := range []uint32{1, 2, 4, 5} {
		tk, ok := d.popFront()
		if !ok || runID(tk) != want {
			t.Fatalf("drain[%d] = %v %v, want task %d", i, tk, ok, want)
		}
	}
	if _, ok := d.popFront(); ok {
		t.Fatal("popFront succeeded on an empty deque")
	}
	if _, ok := d.popBack(); ok {
		t.Fatal("popBack succeeded on an empty deque")
	}
}

// TestDequeConcurrentOwnerAndThieves hammers one bounded deque from a
// submitter, an owner popping the back, and two thieves popping the front —
// the exact concurrent access pattern the engine produces. Run under
// -race this is the scheduler's memory-safety gate; the checksum proves
// every task is delivered exactly once regardless of interleaving.
func TestDequeConcurrentOwnerAndThieves(t *testing.T) {
	const total = 4000
	d := newDeque(32)
	var popped, sum atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup

	consume := func(front bool) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var tk Task
			var ok bool
			if front {
				tk, ok = d.popFront()
			} else {
				tk, ok = d.popBack()
			}
			if !ok {
				runtime.Gosched()
				continue
			}
			sum.Add(uint64(runID(tk)))
			if popped.Add(1) == total {
				close(done)
			}
		}
	}
	wg.Add(3)
	go consume(false) // the owner
	go consume(true)  // two thieves
	go consume(true)

	wg.Add(1)
	go func() { // the submitter
		defer wg.Done()
		for i := uint32(0); i < total; i++ {
			for !d.push(idTask(i)) {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()

	if got := popped.Load(); got != total {
		t.Fatalf("popped %d tasks, want %d", got, total)
	}
	if want := uint64(total) * (total - 1) / 2; sum.Load() != want {
		t.Fatalf("checksum %d, want %d: a task was lost or duplicated", sum.Load(), want)
	}
	if d.len() != 0 {
		t.Fatalf("deque not empty after drain: %d left", d.len())
	}
}
