package core

import (
	"errors"
	"strings"
	"testing"

	"regions/internal/mem"
	"regions/internal/trace"
)

// recoverFault runs fn expecting a panic carrying a *Fault of the given
// kind, returning the fault.
func recoverFault(t *testing.T, kind FaultKind, fn func()) *Fault {
	t.Helper()
	var f *Fault
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic; want *Fault of kind %v", kind)
			}
			var ok bool
			if f, ok = r.(*Fault); !ok {
				t.Fatalf("panicked with %T (%v), want *Fault", r, r)
			}
		}()
		fn()
	}()
	if f.Kind != kind {
		t.Fatalf("fault kind %v, want %v (fault: %v)", f.Kind, kind, f)
	}
	return f
}

func TestTryNewRegionOOM(t *testing.T) {
	rt, _ := newRT(true)
	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 1})
	r, err := rt.TryNewRegion()
	if r != nil || err == nil {
		t.Fatalf("TryNewRegion = (%v, %v), want (nil, error)", r, err)
	}
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("error %v does not wrap mem.ErrOutOfMemory", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultOOM {
		t.Fatalf("error %v is not a FaultOOM *Fault", err)
	}
	// The failed create consumed no region id: the next create works and
	// the heap stays consistent.
	rt.Space().SetFaultPlan(nil)
	r2 := rt.NewRegion()
	if r2 == nil {
		t.Fatal("NewRegion after cleared plan failed")
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after failed create: %v", err)
	}
}

func TestTryAllocsOOMLeaveRegionUnchanged(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	cln := rt.SizeCleanup(8)
	before := r.Bytes()

	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 7})
	// A multi-page array allocation always needs fresh pages.
	if p, err := rt.TryRarrayAlloc(r, 4096, 8, cln); p != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryRarrayAlloc = (%#x, %v), want OOM", p, err)
	}
	if p, err := rt.TryRstrAlloc(r, 4*mem.PageSize); p != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryRstrAlloc = (%#x, %v), want OOM", p, err)
	}
	if p, err := rt.TryRalloc(r, 2*mem.PageSize, rt.SizeCleanup(2*mem.PageSize)); p != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryRalloc = (%#x, %v), want OOM", p, err)
	}
	if r.Bytes() != before {
		t.Fatalf("failed allocations changed region byte count: %d -> %d", before, r.Bytes())
	}
	rt.Space().SetFaultPlan(nil)
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after failed allocations: %v", err)
	}
	// The region still works.
	if p := rt.Ralloc(r, 8, cln); p == 0 {
		t.Fatal("Ralloc after cleared plan failed")
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTryAllocGlobalsOOM(t *testing.T) {
	rt, _ := newRT(true)
	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 3})
	if g, err := rt.TryAllocGlobals(8); g != 0 || !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TryAllocGlobals = (%#x, %v), want OOM", g, err)
	}
	rt.Space().SetFaultPlan(nil)
	if g := rt.AllocGlobals(8); g == 0 {
		t.Fatal("AllocGlobals after cleared plan failed")
	}
}

func TestPanicPathsCarryTypedFaults(t *testing.T) {
	t.Run("oom", func(t *testing.T) {
		rt, _ := newRT(true)
		rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 1})
		f := recoverFault(t, FaultOOM, func() { rt.NewRegion() })
		if !errors.Is(f, mem.ErrOutOfMemory) {
			t.Fatalf("panic fault %v does not wrap ErrOutOfMemory", f)
		}
	})
	t.Run("deleted region", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		if !rt.DeleteRegion(r) {
			t.Fatal("delete failed")
		}
		f := recoverFault(t, FaultDeletedRegion, func() { rt.Ralloc(r, 8, rt.SizeCleanup(8)) })
		if f.Region != r.id {
			t.Fatalf("fault region %d, want %d", f.Region, r.id)
		}
	})
	t.Run("stack underflow", func(t *testing.T) {
		rt, _ := newRT(true)
		recoverFault(t, FaultStackUnderflow, func() { rt.PopFrame() })
	})
	t.Run("rc underflow", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		g := rt.AllocGlobals(1)
		p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
		rt.StoreGlobalPtr(g, p)
		// Corrupt the stored count below the true external count, then
		// clear the global: the decrement underflows.
		rt.Space().Uncharged(func() { rt.Space().Store(r.hdr+offRC, 0) })
		recoverFault(t, FaultRCUnderflow, func() { rt.StoreGlobalPtr(g, 0) })
	})
	t.Run("dangling destroy", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
		// Simulate the corruption this fault guards against: the region is
		// marked deleted but a pointer into it survives in a dying object.
		r.st.deleted = true
		recoverFault(t, FaultDanglingDestroy, func() { rt.Destroy(p) })
	})
	t.Run("corrupt header", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
		rt.Space().Uncharged(func() { rt.Space().Store(p-4, 0xffff) })
		recoverFault(t, FaultCorruptHeader, func() { rt.DeleteRegion(r) })
	})
}

// TestMalformedLayoutFaultsEveryWalk: each region walk meets a malformed
// layout with a typed fault naming the defect — a panic where the walk has
// no error path, an error where it has one, FaultInvariant from the
// verifier, never the simulated machine's own access panic. The array case
// stores a count and element size whose product is 2^32, zero in 32 bits,
// so an extent computed in 32 bits would wrap back inside the entry; only
// the object walks decode it, the word walks (the content digest and
// Referrers) read past it.
func TestMalformedLayoutFaultsEveryWalk(t *testing.T) {
	for _, c := range []struct {
		name, msg string
		link      bool
		corrupt   func(rt *Runtime, r *Region)
	}{
		{"unmapped link", "page-list entry unmapped", true, func(rt *Runtime, r *Region) {
			rt.Space().Store(r.hdr&^Ptr(mem.PageSize-1)+pageLink, 0x7fff0000)
		}},
		{"misaligned head", "page-list entry not page-aligned", true, func(rt *Runtime, r *Region) {
			rt.Space().Store(r.hdr+offNormalFirst, r.hdr)
		}},
		{"array overrun", "runs past its page entry", false, func(rt *Runtime, r *Region) {
			p := rt.RarrayAlloc(r, 2, 8, rt.SizeCleanup(8))
			rt.Space().Store(p-8, 0x10000)
			rt.Space().Store(p-4, 0x10000)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			setup := func() (*Runtime, *Region) {
				rt, _ := newRT(true)
				r := rt.NewRegion()
				rt.Ralloc(r, 8, rt.SizeCleanup(8))
				rt.Space().Uncharged(func() { c.corrupt(rt, r) })
				return rt, r
			}
			named := func(f *Fault) {
				t.Helper()
				if !strings.Contains(f.Error(), c.msg) {
					t.Fatalf("fault %q does not name %q", f, c.msg)
				}
			}
			rt, r := setup()
			var f *Fault
			if err := rt.Verify(); !errors.As(err, &f) || f.Kind != FaultInvariant {
				t.Fatalf("Verify = %v, want a FaultInvariant *Fault", err)
			}
			named(f)
			if _, err := rt.ExportRegion(r); !errors.As(err, &f) || f.Kind != FaultCorruptHeader {
				t.Fatalf("ExportRegion = %v, want a FaultCorruptHeader *Fault", err)
			}
			named(f)
			if r.Migrated() {
				t.Fatal("refused export left a tombstone")
			}
			if c.link {
				named(recoverFault(t, FaultCorruptHeader, func() { rt.ContentChecksum(r) }))
				named(recoverFault(t, FaultCorruptHeader, func() { rt.Referrers(rt.NewRegion()) }))
			}
			named(recoverFault(t, FaultCorruptHeader, func() { rt.DeleteRegion(r) }))
			rt, r = setup()
			rt.opts.DeferredDelete = true
			named(recoverFault(t, FaultCorruptHeader, func() { rt.DeleteRegion(r) }))
		})
	}
}

// TestCyclicPageListFaults: a page list linked back on itself stops the
// walks that follow it with a cycle fault instead of looping. (Verify
// reports the same list as a page claimed twice; see
// TestVerifyCatchesPageListCorruption.)
func TestCyclicPageListFaults(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.Ralloc(r, 8, rt.SizeCleanup(8))
	home := r.hdr &^ Ptr(mem.PageSize-1)
	rt.Space().Uncharged(func() { rt.Space().Store(home+pageLink, home) })
	for _, walk := range []func(){
		func() { rt.ContentChecksum(r) },
		func() { rt.DeleteRegion(r) },
	} {
		if f := recoverFault(t, FaultCorruptHeader, walk); !strings.Contains(f.Error(), "page list cycle") {
			t.Fatalf("fault %q does not name the cycle", f)
		}
	}
}

// TestImportFaultsOnUnlistedCleanup: import walks the relinked list through
// the record's remapped cleanup ids, so an object naming an id the record
// does not list is a typed fault, and the refused import leaves the
// receiver exactly as it was.
func TestImportFaultsOnUnlistedCleanup(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRT(true)
	r := src.NewRegion()
	src.Ralloc(r, 8, src.SizeCleanup(8))
	dst.SizeCleanup(8)
	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	rec.Cleanups = nil
	var f *Fault
	if _, err := dst.ImportRegion(rec); !errors.As(err, &f) || f.Kind != FaultCorruptHeader {
		t.Fatalf("ImportRegion = %v, want a FaultCorruptHeader *Fault", err)
	}
	if n := len(dst.LiveRegions()); n != 0 {
		t.Fatalf("refused import left %d live regions", n)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("Verify after refused import: %v", err)
	}
}

func TestFaultsEmitTraceEvents(t *testing.T) {
	rt, _ := newRT(true)
	tr := trace.New(64)
	rt.SetTracer(tr)
	rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 1, Seed: 1})
	if _, err := rt.TryNewRegion(); err == nil {
		t.Fatal("expected OOM")
	}
	var found bool
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindFault && ev.Aux == int32(FaultOOM) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no KindFault event with Aux=FaultOOM in trace: %v", tr.Events())
	}
}

func TestFaultErrorFormatting(t *testing.T) {
	f := &Fault{Kind: FaultRCUnderflow, Addr: 0x2000, Region: 3, Context: "reference count underflow"}
	msg := f.Error()
	if msg == "" || f.Kind.String() != "rc-underflow" {
		t.Fatalf("unexpected formatting: %q / %q", msg, f.Kind.String())
	}
	for k := FaultOOM; k <= FaultInvariant; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// TestEveryAllocatorSurvivesInjectedFailure is the acceptance test for the
// core runtime: under a seeded fault plan every allocation either succeeds
// or reports a typed OOM, and the heap verifies after each step.
func TestEveryAllocatorSurvivesInjectedFailure(t *testing.T) {
	for _, safe := range []bool{true, false} {
		name := "unsafe"
		if safe {
			name = "safe"
		}
		t.Run(name, func(t *testing.T) {
			rt, _ := newRT(safe)
			rt.Space().SetFaultPlan(&mem.FaultPlan{FailProb: 0.4, Seed: 99})
			cln := rt.SizeCleanup(16)
			var regions []*Region
			ooms := 0
			for i := 0; i < 60; i++ {
				r, err := rt.TryNewRegion()
				if err != nil {
					if !errors.Is(err, mem.ErrOutOfMemory) {
						t.Fatalf("untyped error: %v", err)
					}
					ooms++
					continue
				}
				regions = append(regions, r)
				for j := 0; j < 4; j++ {
					var err error
					switch j % 3 {
					case 0:
						_, err = rt.TryRalloc(r, 16, cln)
					case 1:
						_, err = rt.TryRarrayAlloc(r, 300, 16, cln)
					case 2:
						_, err = rt.TryRstrAlloc(r, 600)
					}
					if err != nil {
						if !errors.Is(err, mem.ErrOutOfMemory) {
							t.Fatalf("untyped error: %v", err)
						}
						ooms++
					}
				}
				if err := rt.Verify(); err != nil {
					t.Fatalf("Verify after round %d: %v", i, err)
				}
			}
			if ooms == 0 {
				t.Fatal("fault plan injected no failures; test is vacuous")
			}
			// Recovery: clear the plan, delete everything, verify.
			rt.Space().SetFaultPlan(nil)
			for _, r := range regions {
				if !rt.DeleteRegion(r) {
					t.Fatalf("delete of %v failed", r)
				}
			}
			if err := rt.Verify(); err != nil {
				t.Fatalf("Verify after drain: %v", err)
			}
		})
	}
}
