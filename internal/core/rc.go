package core

import (
	"fmt"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
)

// rcInc increments r's reference count. The count lives in the region's
// header word in the simulated heap, so the update is a traced memory
// access charged to the current accounting mode.
func (rt *Runtime) rcInc(r *Region) {
	v := rt.space.Load(r.hdr + offRC)
	rt.space.Store(r.hdr+offRC, v+1)
	rt.t.RCIncs++
}

// rcDec decrements r's reference count, panicking with a *Fault of kind
// FaultRCUnderflow on underflow — an underflow means the barrier discipline
// was violated.
func (rt *Runtime) rcDec(r *Region) {
	v := rt.space.Load(r.hdr + offRC)
	if v == 0 {
		panic(rt.fault(FaultRCUnderflow, r.hdr+offRC, r.id,
			"reference count underflow", nil))
	}
	rt.space.Store(r.hdr+offRC, v-1)
	rt.t.RCDecs++
}

// StorePtr implements *slot = val where slot is a word inside a region
// object: the paper's "region write" barrier (Figure 5, 23 instructions).
// Sameregion pointers — val in the same region as slot — cost no count
// update; pointers whose old or new target shares slot's region skip the
// corresponding half of the update.
//
// The charge decomposes around the last-region translation cache: a base
// of regionWriteBase instructions plus lrProbeHit or lrProbeMiss per
// regionof probe (all-miss sums to exactly the flat Figure 5 cost), and a
// barrierFastExtra short path when every translation hits and no count
// update is needed — the repeated-store-into-one-region case that
// dominates all six apps. The RC semantics — counts updated, sameregion
// tallies, traced events — are identical on every path; only the cycle
// charge differs. Options.NoRegionCache restores the flat pre-cache charge.
//
// Under an unsafe runtime this is a plain one-cycle store.
func (rt *Runtime) StorePtr(slot, val Ptr) {
	if !rt.accessible(slot) {
		panic(rt.accessFault("storeptr", slot))
	}
	if !rt.safe {
		rt.space.Store(slot, val)
		return
	}
	m := rt.met
	var start uint64
	if m != nil {
		start = rt.c.TotalCycles()
	}
	old := rt.space.SetMode(stats.ModeRC)
	rt.c.Barriers.Region++

	t := rt.space.Load(slot)
	var ra, rold, rnew *Region
	if rt.opts.NoRegionCache {
		rt.charge(stats.ModeRC, regionWriteExtra)
		ra = rt.RegionOf(slot)
		rold = rt.RegionOf(t)
		rnew = rt.RegionOf(val)
	} else {
		// Three translations in Figure 5's order, each a cache probe in
		// line and the page index out of line on a miss.
		var h1, h3 bool
		if ra, h1 = rt.lrProbe(slot); !h1 {
			ra = rt.regionMiss(slot)
		}
		if rnew, h3 = rt.lrProbe(val); !h3 {
			rnew = rt.regionMiss(val)
		}
		h2 := true // nil old value: Figure 5's NULL test, no translation
		if t != 0 {
			if rold, h2 = rt.lrProbe(t); !h2 {
				rold = rt.regionMiss(t)
			}
		}
		if h1 && h2 && h3 && rnew != nil && rnew == ra && (rold == nil || rold == ra) {
			rt.t.BarrierFast++
			rt.charge(stats.ModeRC, barrierFastExtra)
		} else {
			extra := uint64(regionWriteBase)
			for _, hit := range [...]bool{h1, h2, h3} {
				if hit {
					extra += lrProbeHit
				} else {
					extra += lrProbeMiss
				}
			}
			rt.charge(stats.ModeRC, extra)
		}
	}
	sameregion := rnew != nil && rnew == ra
	if sameregion {
		rt.c.Barriers.SameRegion++
	}
	if rold != rnew {
		if rold != nil && rold != ra {
			rt.rcDec(rold)
		}
		if rnew != nil && rnew != ra {
			rt.rcInc(rnew)
		}
	}
	rt.space.Store(slot, val)
	rt.space.SetMode(old)
	if rt.tracer != nil {
		kind := trace.KindBarrierRegion
		if sameregion {
			kind = trace.KindBarrierElided
		}
		rt.tracer.Emit(trace.Event{Kind: kind, Addr: slot,
			Region: regionID(rnew), Aux: regionID(rold)})
	}
	if m != nil {
		metrics.Observe(barrierCycleBounds[:], rt.t.BarrierCycles[:], &rt.t.BarrierCyclesSum, rt.c.TotalCycles()-start)
	}
}

// StoreGlobalPtr implements *slot = val where slot is in global storage:
// the paper's "global write" barrier (Figure 5, 16 instructions). Global
// storage belongs to no region, so there are no sameregion pointers. A
// slot outside the storage AllocGlobals handed out panics with a
// FaultBadArgument *Fault before anything is stored or counted, on the
// unsafe runtime too: on the safe one, a region slot counted as a global
// reference would pin its target forever. The test is host-side and
// charges nothing.
func (rt *Runtime) StoreGlobalPtr(slot, val Ptr) {
	if !rt.accessible(slot) {
		panic(rt.accessFault("storeglobalptr", slot))
	}
	if !rt.isGlobal(slot) {
		panic(rt.fault(FaultBadArgument, slot, -1,
			fmt.Sprintf("storeglobalptr: slot %#x is not global storage", slot), nil))
	}
	if !rt.safe {
		rt.space.Store(slot, val)
		return
	}
	m := rt.met
	var start uint64
	if m != nil {
		start = rt.c.TotalCycles()
	}
	old := rt.space.SetMode(stats.ModeRC)
	rt.charge(stats.ModeRC, globalWriteExtra)
	rt.c.Barriers.Global++

	t := rt.space.Load(slot)
	rold := rt.RegionOf(t)
	rnew := rt.RegionOf(val)
	if rold != rnew {
		if rold != nil {
			rt.rcDec(rold)
		}
		if rnew != nil {
			rt.rcInc(rnew)
		}
	}
	rt.space.Store(slot, val)
	rt.space.SetMode(old)
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindBarrierGlobal, Addr: slot,
			Region: regionID(rnew), Aux: regionID(rold)})
	}
	if m != nil {
		metrics.Observe(barrierCycleBounds[:], rt.t.BarrierCycles[:], &rt.t.BarrierCyclesSum, rt.c.TotalCycles()-start)
	}
}

// CheckAccess panics with a FaultBadArgument *Fault unless a word access
// at a can succeed: a is word-aligned and in a mapped page. The fault's Err
// is the mem.AccessError the access would raise, and it is raised before
// anything is charged, counted or switched to another accounting mode.
func (rt *Runtime) CheckAccess(op string, a Ptr) {
	if !rt.accessible(a) {
		panic(rt.accessFault(op, a))
	}
}

// accessible reports whether a word access at a can succeed. The barriers
// test it in line, since they run on every pointer store.
func (rt *Runtime) accessible(a Ptr) bool {
	return a%mem.WordSize == 0 && rt.space.Mapped(a)
}

// accessFault is the fault CheckAccess raises for op at a.
func (rt *Runtime) accessFault(op string, a Ptr) *Fault {
	return rt.fault(FaultBadArgument, a, -1, op, mem.AccessError{Addr: a})
}

// isGlobal reports whether slot lies in the global storage AllocGlobals has
// handed out: a retired segment's used extent or the current segment's.
func (rt *Runtime) isGlobal(slot Ptr) bool {
	if slot >= rt.globalSeg && slot < rt.globalNext {
		return true
	}
	for _, seg := range rt.globalRanges {
		if slot >= seg[0] && slot < seg[1] {
			return true
		}
	}
	return false
}

// StorePtrDynamic is the "more expensive runtime routine" the paper uses
// when a write cannot be statically classified as a global or region write
// (Section 4.2.2): it classifies slot at run time and applies the right
// barrier, charging extra for the classification. The unsafe runtime has
// no barrier to choose, so it classifies nothing and stores into any
// mapped, aligned slot by design.
func (rt *Runtime) StorePtrDynamic(slot, val Ptr) {
	if !rt.accessible(slot) {
		panic(rt.accessFault("storeptrdynamic", slot))
	}
	if !rt.safe {
		rt.space.Store(slot, val)
		return
	}
	rt.charge(stats.ModeRC, dynamicWriteExtra-regionWriteExtra)
	if rt.RegionOf(slot) != nil {
		rt.StorePtr(slot, val)
	} else {
		rt.charge(stats.ModeRC, regionWriteExtra-globalWriteExtra)
		rt.StoreGlobalPtr(slot, val)
	}
}

// AllocGlobals reserves nwords consecutive words of global storage and
// returns the address of the first. Global storage belongs to no region;
// region pointers stored in it are counted exactly via StoreGlobalPtr.
// AllocGlobals panics with a *Fault on OOM; TryAllocGlobals is the graceful
// variant.
func (rt *Runtime) AllocGlobals(nwords int) Ptr {
	p, err := rt.TryAllocGlobals(nwords)
	if err != nil {
		panic(err)
	}
	return p
}

// TryAllocGlobals is AllocGlobals returning a *Fault (kind FaultOOM) instead
// of panicking when the simulated OS refuses the segment's pages, and of
// kind FaultBadArgument for a negative count or one the 32-bit address
// space cannot hold. On failure the current segment is unchanged.
func (rt *Runtime) TryAllocGlobals(nwords int) (Ptr, error) {
	if nwords < 0 || nwords >= 1<<(32-2) {
		return 0, rt.fault(FaultBadArgument, 0, -1, fmt.Sprintf("allocglobals: %d words", nwords), nil)
	}
	need := Ptr(nwords * mem.WordSize)
	if rt.globalNext+need > rt.globalEnd || rt.globalSeg == 0 {
		pages := (int(need) + mem.PageSize - 1) / mem.PageSize
		if pages < 4 {
			pages = 4
		}
		seg := rt.space.MapPages(pages)
		if seg == 0 {
			return 0, rt.oomFault("allocglobals", -1)
		}
		rt.notePages(seg, pages, nil)
		if rt.globalSeg != 0 {
			rt.globalRanges = append(rt.globalRanges, [2]Ptr{rt.globalSeg, rt.globalNext})
		}
		rt.globalSeg = seg
		rt.globalNext = seg
		rt.globalEnd = seg + Ptr(pages*mem.PageSize)
	}
	p := rt.globalNext
	rt.globalNext += need
	return p, nil
}
