package core

import (
	"errors"
	"strings"
	"testing"

	"regions/internal/mem"
)

// wantInvariant runs Verify and requires a FaultInvariant whose context
// contains substr.
func wantInvariant(t *testing.T, rt *Runtime, substr string) {
	t.Helper()
	err := rt.Verify()
	if err == nil {
		t.Fatalf("Verify passed; want a violation mentioning %q", substr)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultInvariant {
		t.Fatalf("Verify returned %v; want a FaultInvariant *Fault", err)
	}
	if !strings.Contains(f.Context, substr) {
		t.Fatalf("violation %q does not mention %q", f.Context, substr)
	}
}

// buildHealthyHeap makes a runtime with regions, cross-region pointers,
// globals, arrays, strings, frames and some deletions behind it.
func buildHealthyHeap(t *testing.T) (*Runtime, []*Region) {
	t.Helper()
	rt, _ := newRT(true)
	cln := rt.RegisterCleanup("cell", func(rt *Runtime, obj Ptr) int {
		rt.Destroy(rt.Space().Load(obj + 4))
		return 8
	})
	g := rt.AllocGlobals(4)
	var regs []*Region
	var last Ptr
	for i := 0; i < 3; i++ {
		r := rt.NewRegion()
		regs = append(regs, r)
		for j := 0; j < 5; j++ {
			p := rt.Ralloc(r, 8, cln)
			rt.StorePtr(p+4, last)
			last = p
		}
		rt.RarrayAlloc(r, 10, 8, cln)
		rt.RstrAlloc(r, 100)
	}
	rt.StoreGlobalPtr(g, last)
	f := rt.PushFrame(2)
	f.Set(0, last)
	// A deleted region leaves poisoned pages on the free lists.
	scratch := rt.NewRegion()
	rt.RstrAlloc(scratch, 3*mem.PageSize)
	if !rt.DeleteRegion(scratch) {
		t.Fatal("scratch delete failed")
	}
	return rt, regs
}

func TestVerifyPassesOnHealthyHeap(t *testing.T) {
	rt, _ := buildHealthyHeap(t)
	if err := rt.Verify(); err != nil {
		t.Fatalf("healthy heap fails verification: %v", err)
	}
	// Verify is uncharged and non-perturbing: a second run agrees and the
	// heap still works.
	if err := rt.Verify(); err != nil {
		t.Fatalf("second verification: %v", err)
	}
	r := rt.NewRegion()
	rt.Ralloc(r, 8, rt.SizeCleanup(8))
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesCorruptRC(t *testing.T) {
	rt, regs := buildHealthyHeap(t)
	rt.Space().Uncharged(func() {
		rt.Space().Store(regs[0].hdr+offRC, 999)
	})
	wantInvariant(t, rt, "stored reference count")
}

func TestVerifyCatchesCorruptHeader(t *testing.T) {
	rt, regs := buildHealthyHeap(t)
	p := rt.Ralloc(regs[1], 8, rt.SizeCleanup(8))
	rt.Space().Uncharged(func() {
		rt.Space().Store(p-mem.WordSize, 0x7fff) // no such cleanup id
	})
	wantInvariant(t, rt, "corrupt object header")
}

func TestVerifyCatchesStrayWriteIntoFreedPage(t *testing.T) {
	rt, _ := buildHealthyHeap(t)
	if len(rt.freePages) == 0 {
		t.Fatal("no freed pages to corrupt")
	}
	freed := rt.freePages[0]
	rt.Space().Uncharged(func() {
		rt.Space().Store(freed+64, 0x12345678)
	})
	wantInvariant(t, rt, "not poison")
}

func TestVerifyCatchesPageMapCorruption(t *testing.T) {
	rt, regs := buildHealthyHeap(t)
	// Point a page of region 0 at region 1 in the page map.
	pg := int(regs[0].hdr >> mem.PageShift)
	rt.pages.owners[pg] = regs[1]
	wantInvariant(t, rt, "page map")
}

func TestVerifyCatchesPageListCorruption(t *testing.T) {
	rt, regs := buildHealthyHeap(t)
	r := regs[2]
	// Make the normal list's first entry point at itself: a cycle.
	rt.Space().Uncharged(func() {
		entry := rt.Space().Load(r.hdr + offNormalFirst)
		link := rt.Space().Load(entry + pageLink)
		rt.Space().Store(entry+pageLink, entry|(link&(mem.PageSize-1)))
	})
	// The self-loop shows up as the page being claimed twice (the census
	// catches the duplicate before the cycle bound trips).
	wantInvariant(t, rt, "also on region")
}

func TestVerifyCatchesBadAvailOffset(t *testing.T) {
	rt, regs := buildHealthyHeap(t)
	rt.Space().Uncharged(func() {
		rt.Space().Store(regs[0].hdr+offNormalAvail, mem.PageSize+8)
	})
	wantInvariant(t, rt, "exceeds page size")
}

func TestVerifyCatchesStackCorruption(t *testing.T) {
	rt, _ := buildHealthyHeap(t)
	rt.PushFrame(1)
	rt.stack.frames[len(rt.stack.frames)-1].scanned = true
	wantInvariant(t, rt, "scanned")
}

func TestVerifyUnsafeRuntimeSkipsRC(t *testing.T) {
	rt, _ := newRT(false)
	r := rt.NewRegion()
	g := rt.AllocGlobals(1)
	p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
	rt.StoreGlobalPtr(g, p)
	// The unsafe runtime keeps no counts; Verify must not demand them.
	if err := rt.Verify(); err != nil {
		t.Fatalf("unsafe runtime verification: %v", err)
	}
}

// TestVerifyAndReferrersObserveNothing: a Verify or a Referrers call in
// the middle of a run leaves every count the run reports as it was. Both
// translate heap words through the page index, not the last-region cache,
// so neither fills the cache the barriers that follow probe nor counts a
// probe. Six regions point at each other round-robin, more than the cache
// holds, so a filled entry would change the barriers' hits and charges.
func TestVerifyAndReferrersObserveNothing(t *testing.T) {
	run := func(observe func(rt *Runtime, regs []*Region)) Spine {
		t.Helper()
		rt, _ := newRT(true)
		cln := rt.SizeCleanup(8)
		g := rt.AllocGlobals(1)
		regs := make([]*Region, 6)
		objs := make([]Ptr, len(regs))
		for i := range regs {
			regs[i] = rt.NewRegion()
			objs[i] = rt.Ralloc(regs[i], 8, cln)
		}
		link := func(k int) {
			for i := range objs {
				rt.StorePtr(objs[i], objs[(i+k)%len(objs)])
				rt.StorePtr(objs[i]+4, objs[i])
			}
		}
		link(1)
		rt.StoreGlobalPtr(g, objs[0])
		if observe != nil {
			observe(rt, regs)
		}
		link(2)
		rt.StoreGlobalPtr(g, objs[3])
		for i := range objs {
			rt.StorePtr(objs[i], 0)
		}
		rt.StoreGlobalPtr(g, 0)
		for _, r := range regs {
			if !rt.DeleteRegion(r) {
				t.Fatalf("%v not deletable", r)
			}
		}
		if err := rt.Verify(); err != nil {
			t.Fatal(err)
		}
		return rt.Spine()
	}
	bare := run(nil)
	for _, c := range []struct {
		name    string
		observe func(rt *Runtime, regs []*Region)
	}{
		{"verify", func(rt *Runtime, _ []*Region) {
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
		}},
		{"referrers", func(rt *Runtime, regs []*Region) {
			for _, r := range regs {
				if len(rt.Referrers(r)) == 0 {
					t.Fatalf("no referrers into %v", r)
				}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := run(c.observe)
			if got.Counters != bare.Counters {
				t.Errorf("counters differ: %d cycles with a mid-run %s, %d without",
					got.Counters.TotalCycles(), c.name, bare.Counters.TotalCycles())
			}
			if got.Tally != bare.Tally {
				t.Errorf("translation cache hits/misses/page-index hits %d/%d/%d with a mid-run %s, %d/%d/%d without",
					got.Tally.LRHits, got.Tally.LRMisses, got.Tally.PageIndexHits, c.name,
					bare.Tally.LRHits, bare.Tally.LRMisses, bare.Tally.PageIndexHits)
			}
		})
	}
}
