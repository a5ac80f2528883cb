package core

import (
	"fmt"

	"regions/internal/mem"
)

// This file is the heap-invariant verifier: an exhaustive, uncharged audit
// of every structural invariant the runtime maintains. The paper argues
// (Sections 4.2-4.3) that region reference counting makes deleteregion safe;
// Verify is the executable form of that argument. It walks the page→region
// map and every region's page lists, recomputes exact reference counts from
// heap contents, re-walks object headers the way deleteregion's cleanup pass
// would, checks free pages for poison integrity, and checks the shadow
// stack's high-water-mark invariant. The crash-consistency property tests
// call it after every operation while a FaultPlan injects MapPages failures,
// proving the failure paths leave the heap exactly as it was.
//
// The structural walk itself (steps 1-4) lives in heap.go as heapWalk,
// shared with the heap profiler: Runtime.HeapReport runs the same walk with
// collection enabled, so profiles are certified by the same checks.

// Verify audits the runtime's heap invariants and returns nil if they all
// hold, or a *Fault of kind FaultInvariant describing the first violation.
// Verification charges no simulated cycles and does not perturb the heap;
// cleanup functions are dry-run to measure object extents, with Destroy
// disabled for the duration.
//
// Checks, in order:
//
//  1. Page census: both page lists of every live region are walked (with a
//     cycle bound); every page they cover must be mapped, claimed by exactly
//     one list, and attributed to that region in the page→region map. The
//     region's live byte count must fit in those pages.
//  2. Page map: every page the map attributes to a region must belong to a
//     live region and appear in that region's census.
//  3. Free lists: free pages and spans must be unowned and still filled
//     with mem.PoisonWord, so a stray write into freed memory is detected.
//     Pages detached by a deferred deletion (Options.DeferredDelete) are
//     exempt from the poison check until the incremental sweeper retires
//     them; instead they must be attributed to a deleted region, present in
//     the sweep queue, and sum to exactly the runtime's sweep debt and each
//     region's unswept count.
//  4. Object headers: every normal-allocator entry's filled prefix must
//     parse as a sequence of valid headers whose extents (cleanup sizes,
//     array bounds) stay inside the entry.
//  5. String pools: every block parked on a region's capacity-class free
//     lists (RstrFree) must lie on that region's own string pages inside
//     the head page's allocated prefix, be filed under the class its
//     recorded capacity floors to, hold poison in every word, and overlap
//     no other parked block; the region's recorded pool byte total must
//     equal the blocks' capacity sum. A double RstrFree is caught here as an
//     overlap.
//  6. Shadow stack: frames below the high-water mark are scanned, frames at
//     or above it are not, and the active frame is never scanned.
//  7. Reference counts (safe runtime only): each live region's stored count
//     must equal the count recomputed from heap contents — cross-region
//     words in scanned object data (not object headers or array
//     bookkeeping), global words, and scanned frame slots (all frame slots
//     under EagerLocals).
//  8. Region states: the shared dead states are as built, every listed
//     region points at a dead state or at a state no other region and no
//     spare-list entry holds, a deleted region keeps its own state only
//     while it has detached pages, and every spare state is empty.
//
// The recomputation in (7) reads raw heap words, so it assumes the C@
// discipline the paper's compiler enforces: a scanned-data word that equals
// a region address is a region pointer maintained through the write
// barriers. Programs that store integers aliasing heap addresses in ralloc'd
// memory will see false mismatches; the string allocator is exempt (never
// scanned, never counted).
func (rt *Runtime) Verify() error {
	var err error
	rt.space.Uncharged(func() { err = rt.verify() })
	return err
}

// invariant builds the FaultInvariant fault for a Verify violation.
func (rt *Runtime) invariant(addr Ptr, region int32, format string, args ...interface{}) *Fault {
	return rt.fault(FaultInvariant, addr, region, fmt.Sprintf(format, args...), nil)
}

func (rt *Runtime) verify() error {
	// 0. Translation cache: every last-region cache entry must agree with
	// the dense page index. The checks below translate through the page
	// index itself, not the cache, so Verify neither fills the cache nor
	// counts a probe: a run reports the same numbers with or without it.
	for i := range rt.lr {
		e := rt.lr[i]
		if owner := rt.pages.ownerAt(int(e.page)); owner != e.r {
			return rt.invariant(e.page<<mem.PageShift, regionID(e.r),
				"stale translation cache entry: page %d cached as region %d, owned by %d",
				e.page, regionID(e.r), regionID(owner))
		}
	}

	// 1-4. Heap structure: page census, page map, free lists, object headers.
	if _, err := rt.heapWalk(false); err != nil {
		return err
	}

	// 5. Shadow stack.
	s := &rt.stack
	if s.hwm < 0 || s.hwm > len(s.frames) {
		return rt.invariant(0, -1, "high-water mark %d outside stack of %d frames",
			s.hwm, len(s.frames))
	}
	for i, fr := range s.frames {
		if want := i < s.hwm; fr.scanned != want {
			return rt.invariant(0, -1, "frame %d scanned=%v under high-water mark %d",
				i, fr.scanned, s.hwm)
		}
	}
	if n := len(s.frames); n > 0 && s.frames[n-1].scanned {
		return rt.invariant(0, -1, "active frame is scanned")
	}

	// 6. Reference counts.
	if rt.safe {
		if f := rt.verifyRC(); f != nil {
			return f
		}
	}

	// Region states.
	if f := rt.checkStates(); f != nil {
		return f
	}
	return nil
}

// checkStates audits the region states (see retire). A write into a dead
// state would change what every dead handle of every runtime reports, a
// state held twice would let a dead or foreign handle reach a live
// region, and a spare state that is not empty would hand its contents to
// the next region.
func (rt *Runtime) checkStates() *Fault {
	if deletedState != (regionState{deleted: true}) || migratedState != (regionState{deleted: true, migrated: true}) {
		return rt.invariant(0, -1, "shared dead region states written: %+v, %+v", deletedState, migratedState)
	}
	holder := make(map[*regionState]int32, len(rt.regions)+len(rt.spare))
	for _, st := range rt.spare {
		if _, dup := holder[st]; dup || isDead(st) {
			return rt.invariant(0, -1, "a dead state, or one state twice, on the spare list")
		}
		holder[st] = -1
		sp := st.pool
		if *st != (regionState{pool: sp}) || sp != nil && (sp.mask != 0 || sp.bytes != 0) {
			return rt.invariant(0, -1, "spare region state not empty: %+v", *st)
		}
	}
	for _, r := range rt.regions {
		if isDead(r.st) {
			continue
		}
		if id, dup := holder[r.st]; dup {
			return rt.invariant(r.hdr, r.id, "region state also held by region #%d (-1: the spare list)", id)
		}
		holder[r.st] = r.id
		if r.st.deleted && r.st.unswept == 0 {
			return rt.invariant(r.hdr, r.id, "deleted region owns nothing but keeps its state")
		}
	}
	return nil
}

// verifyRC recomputes every live region's exact reference count from heap
// contents and compares it to the stored count.
func (rt *Runtime) verifyRC() *Fault {
	want := make(map[int32]uint64)

	// Cross-region words in scanned (normal-allocator) object data.
	for _, reg := range rt.regions {
		if reg.st.deleted {
			continue
		}
		r := reg
		rt.forEachDataWord(r, func(_ Ptr, v Word) {
			if t := rt.pages.lookup(v); t != nil && t != r {
				want[t.id]++
			}
		})
	}

	// Global storage.
	rt.forEachGlobalWord(func(_ Ptr, v Word) {
		if t := rt.pages.lookup(v); t != nil {
			want[t.id]++
		}
	})

	// Counted frame slots: scanned frames, or every frame under EagerLocals.
	for _, fr := range rt.stack.frames {
		if !fr.scanned && !rt.opts.EagerLocals {
			continue
		}
		for _, p := range fr.slots {
			if t := rt.pages.lookup(p); t != nil {
				want[t.id]++
			}
		}
	}

	for _, r := range rt.regions {
		if r.st.deleted {
			continue
		}
		got := rt.space.Load(r.hdr + offRC)
		if uint64(got) != want[r.id] {
			return rt.invariant(r.hdr+offRC, r.id,
				"stored reference count %d, recomputed %d", got, want[r.id])
		}
	}
	return nil
}

// forEachGlobalWord visits every nonzero word of global storage, in every
// segment ever allocated — the global iteration shared by the
// reference-count verifier and Referrers.
func (rt *Runtime) forEachGlobalWord(visit func(addr Ptr, v Word)) {
	scan := func(from, to Ptr) {
		for a := from; a < to; a += mem.WordSize {
			if v := rt.space.Load(a); v != 0 {
				visit(a, v)
			}
		}
	}
	for _, seg := range rt.globalRanges {
		scan(seg[0], seg[1])
	}
	scan(rt.globalSeg, rt.globalNext)
}
