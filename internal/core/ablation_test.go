package core

import (
	"testing"

	"regions/internal/mem"
	"regions/internal/stats"
)

func newRTOpts(o Options) (*Runtime, *stats.Counters) {
	c := &stats.Counters{}
	return NewRuntimeOpts(mem.NewSpace(c), o), c
}

// eagerWorkload writes frame slots heavily and deletes regions, the access
// pattern where the paper's deferred scheme pays off.
func eagerWorkload(rt *Runtime) {
	cln := rt.RegisterCleanup("cell", listCleanup)
	f := rt.PushFrame(4)
	for round := 0; round < 50; round++ {
		r := rt.NewRegion()
		for i := 0; i < 100; i++ {
			p := cons(rt, cln, r, uint32(i), 0)
			f.Set(i%4, p) // every write counts under EagerLocals
		}
		for s := 0; s < 4; s++ {
			f.Set(s, 0)
		}
		if !rt.DeleteRegion(r) {
			panic("delete failed")
		}
	}
	rt.PopFrame()
}

func TestEagerLocalsSemanticsMatchDeferred(t *testing.T) {
	run := func(o Options) (uint64, uint64) {
		rt, c := newRTOpts(o)
		eagerWorkload(rt)
		return c.Allocs, c.RegionsDeleted
	}
	a1, d1 := run(Options{Safe: true})
	a2, d2 := run(Options{Safe: true, EagerLocals: true})
	if a1 != a2 || d1 != d2 {
		t.Fatalf("behaviour differs: (%d,%d) vs (%d,%d)", a1, d1, a2, d2)
	}
}

func TestEagerLocalsCostMoreThanDeferred(t *testing.T) {
	// The ablation the deferred scheme is designed to win: local-variable
	// writes dominate, so eager counting costs far more.
	run := func(o Options) uint64 {
		rt, c := newRTOpts(o)
		eagerWorkload(rt)
		return c.SafetyCycles()
	}
	deferred := run(Options{Safe: true})
	eager := run(Options{Safe: true, EagerLocals: true})
	if eager <= deferred {
		t.Fatalf("eager (%d) should cost more than deferred (%d)", eager, deferred)
	}
	t.Logf("safety cycles: deferred=%d eager=%d (%.1fx)",
		deferred, eager, float64(eager)/float64(deferred))
}

func TestEagerLocalsDeleteBlockedByLiveSlot(t *testing.T) {
	rt, c := newRTOpts(Options{Safe: true, EagerLocals: true})
	cln := rt.RegisterCleanup("cell", listCleanup)
	r := rt.NewRegion()
	f := rt.PushFrame(1)
	f.Set(0, cons(rt, cln, r, 1, 0))
	if rt.DeleteRegion(r) {
		t.Fatal("delete succeeded with live eager-counted slot")
	}
	if c.FramesScanned != 0 {
		t.Fatalf("eager mode scanned %d frames; it should never scan", c.FramesScanned)
	}
	f.Set(0, 0)
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed after clearing slot")
	}
	rt.PopFrame()
}

func TestEagerLocalsPopReleasesReferences(t *testing.T) {
	rt, _ := newRTOpts(Options{Safe: true, EagerLocals: true})
	cln := rt.RegisterCleanup("cell", listCleanup)
	r := rt.NewRegion()
	f := rt.PushFrame(2)
	f.Set(0, cons(rt, cln, r, 1, 0))
	f.Set(1, cons(rt, cln, r, 2, 0))
	if rt.RC(r) != 2 {
		t.Fatalf("rc=%d, want 2 (eager counting)", rt.RC(r))
	}
	rt.PopFrame()
	if rt.RC(r) != 0 {
		t.Fatalf("rc=%d after pop, want 0", rt.RC(r))
	}
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed after frame died")
	}
}

func TestNoColoringPutsHeadersAtSameOffset(t *testing.T) {
	rt, _ := newRTOpts(Options{Safe: true, NoColoring: true})
	offsets := map[Ptr]bool{}
	for i := 0; i < 10; i++ {
		offsets[rt.NewRegion().hdr%mem.PageSize] = true
	}
	if len(offsets) != 1 {
		t.Fatalf("NoColoring should give one header offset, got %d", len(offsets))
	}
	colored, _ := newRTOpts(Options{Safe: true})
	offsets = map[Ptr]bool{}
	for i := 0; i < 10; i++ {
		offsets[colored.NewRegion().hdr%mem.PageSize] = true
	}
	if len(offsets) < 8 {
		t.Fatalf("coloring should spread offsets, got %d", len(offsets))
	}
}
