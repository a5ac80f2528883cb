package core

import (
	"errors"
	"slices"
	"testing"

	"regions/internal/mem"
	"regions/internal/stats"
)

// deadRegion is a handle whose region died, with what its faults must name.
type deadRegion struct {
	r    *Region
	kind FaultKind
	id   int32
	hdr  Ptr
}

// bury records r, about to die with a fault of the given kind, as a
// deadRegion.
func bury(r *Region, kind FaultKind) deadRegion {
	return deadRegion{r: r, kind: kind, id: r.id, hdr: r.hdr}
}

// probe calls every operation that takes a region on the dead handle. Each
// must fail with the region's own fault kind, id and header address, and
// change nothing: the counts, the mapped bytes, and every live region's
// bytes and allocations.
func (d deadRegion) probe(t *testing.T, rt *Runtime, cln CleanupID) {
	t.Helper()
	type snapshot struct {
		c      stats.Counters
		t      Tally
		mapped uint64
		live   [][2]uint64
	}
	take := func() snapshot {
		s := snapshot{c: *rt.c, t: *rt.t, mapped: rt.space.MappedBytes()}
		for _, r := range rt.LiveRegions() {
			s.live = append(s.live, [2]uint64{r.Bytes(), r.Allocs()})
		}
		return s
	}
	before := take()
	want := func(op string, err error) {
		t.Helper()
		var f *Fault
		if !errors.As(err, &f) || f.Kind != d.kind || f.Region != d.id || f.Addr != d.hdr {
			t.Fatalf("%s on the dead region#%d returned %v, want a %v fault on region#%d at %#x",
				op, d.id, err, d.kind, d.id, d.hdr)
		}
	}
	_, err := rt.TryRalloc(d.r, 8, cln)
	want("TryRalloc", err)
	_, err = rt.TryRarrayAlloc(d.r, 2, 8, cln)
	want("TryRarrayAlloc", err)
	_, err = rt.TryRstrAlloc(d.r, 8)
	want("TryRstrAlloc", err)
	want("TryRstrFree", rt.TryRstrFree(d.r, d.hdr, 8))
	ok, err := rt.TryDeleteRegion(d.r)
	want("TryDeleteRegion", err)
	rec, xerr := rt.ExportRegion(d.r)
	want("ExportRegion", xerr)
	if ok || rec != nil || rt.Exportable(d.r) {
		t.Fatalf("the dead region#%d was deleted, exported or found exportable", d.id)
	}
	if after := take(); after.c != before.c || after.t != before.t || after.mapped != before.mapped ||
		!slices.Equal(after.live, before.live) {
		t.Fatalf("probing the dead region#%d changed the runtime", d.id)
	}
}

// TestStaleHandleAfterStateReuse: a region's state is reused by the next
// region once the region owns nothing — after a synchronous delete, after
// the sweep of its last detached page, after an export — and the dead
// handle still faults with its own kind, id and header address, never
// reaching the state the new region now holds.
func TestStaleHandleAfterStateReuse(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		kind FaultKind
		kill func(t *testing.T, rt *Runtime, r *Region)
	}{
		{"delete", Options{Safe: true}, FaultDeletedRegion, func(t *testing.T, rt *Runtime, r *Region) {
			if !rt.DeleteRegion(r) {
				t.Fatal("delete failed")
			}
		}},
		{"detach-then-sweep", Options{Safe: true, DeferredDelete: true}, FaultDeletedRegion, func(t *testing.T, rt *Runtime, r *Region) {
			if !rt.DeleteRegion(r) {
				t.Fatal("delete failed")
			}
			// Detached, the region keeps its state and says so.
			bury(r, FaultDetachedRegion).probe(t, rt, rt.SizeCleanup(8))
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if len(rt.spare) != 0 {
				t.Fatal("a detached region's state is on the spare list")
			}
			rt.SweepDrain()
		}},
		{"export", Options{Safe: true}, FaultMigratedRegion, func(t *testing.T, rt *Runtime, r *Region) {
			if _, err := rt.ExportRegion(r); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, _ := newRTOpts(c.opts)
			cln := rt.SizeCleanup(8)
			r := rt.NewRegion()
			// Give the state something to hand on: counts, a string
			// frontier and a pooled block.
			rt.Ralloc(r, 8, cln)
			rt.RstrFree(r, rt.RstrAlloc(r, 64), 64)
			rt.RstrAlloc(r, 40)
			st, dead := r.st, bury(r, c.kind)
			c.kill(t, rt, r)

			next := rt.NewRegion()
			if next.st != st {
				t.Fatal("the new region did not take the dead region's state")
			}
			if next.Bytes() != 0 || next.Allocs() != 0 || next.Deleted() || poolBytes(next) != 0 {
				t.Fatalf("the new region starts as %v", next)
			}
			p, s := rt.Ralloc(next, 8, cln), rt.RstrAlloc(next, 16)
			if rt.RegionOf(p) != next || rt.RegionOf(s) != next || rt.RegionOf(next.hdr) != next {
				t.Fatal("RegionOf does not name the new region's handle")
			}
			if r.Bytes() != 0 || r.Allocs() != 0 || !r.Deleted() || r.Detached() ||
				r.Migrated() != (c.kind == FaultMigratedRegion) {
				t.Fatalf("the dead handle reads %v", r)
			}
			dead.probe(t, rt, cln)
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if next.Bytes() != 8+16 || next.Allocs() != 2 {
				t.Fatalf("the new region holds %d bytes in %d allocations, want 24 in 2", next.Bytes(), next.Allocs())
			}
			if !rt.DeleteRegion(next) {
				t.Fatal("the new region is not deletable")
			}
			dead.probe(t, rt, cln)
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyCatchesStateMisuse: Verify audits the shared dead states and
// the spare list, so a write through a dead handle or a state held twice
// does not go unnoticed.
func TestVerifyCatchesStateMisuse(t *testing.T) {
	t.Run("dead-state-written", func(t *testing.T) {
		rt, _ := newRT(true)
		r := rt.NewRegion()
		rt.DeleteRegion(r)
		defer func() { deletedState.bytes = 0 }()
		r.st.bytes = 8
		wantInvariant(t, rt, "shared dead region states written")
	})
	t.Run("state-held-twice", func(t *testing.T) {
		rt, _ := newRT(true)
		a, b := rt.NewRegion(), rt.NewRegion()
		b.st = a.st
		wantInvariant(t, rt, "region state also held by region #0")
	})
	t.Run("spare-state-held", func(t *testing.T) {
		rt, _ := newRT(true)
		a := rt.NewRegion()
		rt.DeleteRegion(rt.NewRegion())
		a.st = rt.spare[0]
		wantInvariant(t, rt, "(-1: the spare list)")
	})
	t.Run("spare-state-not-empty", func(t *testing.T) {
		rt, _ := newRT(true)
		rt.DeleteRegion(rt.NewRegion())
		rt.spare[0].allocs = 1
		wantInvariant(t, rt, "spare region state not empty")
	})
	t.Run("dead-region-keeps-state", func(t *testing.T) {
		rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: true})
		r := rt.NewRegion()
		rt.RstrAlloc(r, 2*mem.PageSize)
		rt.DeleteRegion(r)
		rt.SweepDrain()
		st := &regionState{deleted: true}
		r.st = st
		wantInvariant(t, rt, "deleted region owns nothing but keeps its state")
	})
}
