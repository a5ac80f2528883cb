package core

import (
	"math/bits"
	"strconv"

	"regions/internal/mem"
	"regions/internal/stats"
)

// This file is the pooled string allocator, ROADMAP item "pooled
// string/buffer allocator with reuse accounting": power-of-two capacity
// classes over the region's pointer-free (rstralloc) side, in the style of
// the bytespool buffer libraries.
//
// The paper's rstralloc is a pure bump allocator — strings carry no
// bookkeeping and are reclaimed only when the whole region dies — so a
// workload that recycles string buffers inside a long-lived region keeps
// bumping into fresh pages and round-trips every one of them through the
// simulated OS. The pool adds an explicit free path without disturbing the
// paper's semantics:
//
//   - RstrFree(r, p, size) retires one rstralloc block. The block is
//     poisoned (uncharged, like every freed-memory fill) and parked on a
//     per-region free list bucketed by the floor power of two of its aligned
//     capacity, from strClassMin up to the fixed ceiling defaultStrPoolMax.
//     Blocks above the ceiling — and every free under Options.NoStrPool —
//     are accounting-only: the bytes stop counting as live and the memory
//     waits for region deletion, exactly as before.
//   - TryRstrAlloc first probes the request's floor class, newest block
//     first, for a parked block whose recorded capacity fits (at most
//     strPoolProbe entries, first fit). A hit charges 1 cycle per probe
//     examined plus the allocator's fixed 4, so the common exact-size
//     recycle costs 5 cycles against the in-page bump path's 7 — and
//     against the new-page path's page acquisition, which is the entire
//     point: a pool hit never touches the page lists or the simulated OS.
//     A miss falls through to the bump path unchanged, allocating exactly
//     align4(size) bytes at exactly the address it always did, so a
//     workload that never frees has a bit-identical address stream with
//     pooling on or off.
//
// Capacities are recorded per block rather than rounded to the class size:
// rounding allocations up would change the address stream (breaking the
// pooling-on/off A/B), and bucketing a freed block by anything other than
// its true capacity would let a 48-byte request "fit" a 36-byte block. With
// floor-class bucketing and first-fit on the recorded capacity, a
// same-size free/alloc cycle always reuses, and a smaller request reusing a
// larger block leaves the slack as fragmentation until the region dies.
//
// Page-level reuse across regions is already covered by the runtime's free
// page lists and PR 7's detach-then-sweep; the pool captures the sub-page
// reuse inside live regions those mechanisms cannot see. Pools are
// host-side structures (like the free page lists): they die with their
// region (strPoolClear), are serialized and remapped by region migration
// (RegionRecord.StrPool), and are audited by Verify — poisoning intact, no
// overlaps, blocks on the region's own string pages, capacity agreeing with
// the class (see checkStrPool in heap.go).

const (
	// strClassMin is the smallest pooled capacity: one machine word, the
	// minimum rstralloc ever allocates.
	strClassMin = mem.WordSize

	// defaultStrPoolMax is the capacity-class ceiling. Requests above it
	// are "Big": bump-allocated and never pooled.
	defaultStrPoolMax = 2048

	// strClasses counts the capacity classes, strClassMin (4 bytes) to
	// defaultStrPoolMax by powers of two.
	strClasses = 10

	// strPoolProbe bounds the blocks examined per allocation. The newest
	// block is probed first, so steady-state same-size recycling hits on
	// the first probe; the bound keeps the worst-case lookup cost (4
	// cycles) in the same band as the bump path it replaces.
	strPoolProbe = 4
)

// strBlock is one freed rstralloc block parked for reuse: its address and
// the aligned capacity recorded when it was freed.
type strBlock struct {
	p   Ptr
	cap int32
}

// strPool is one region's side table of parked blocks: a free list per
// capacity class, their recorded capacities summed for the heap report's
// byte decomposition, and a mask with bit i set while class i's list is
// non-empty.
type strPool struct {
	classes [strClasses][]strBlock
	bytes   uint64
	mask    uint16
}

// strClassIdx maps an aligned capacity to its class: the floor power of two,
// so class i holds blocks of capacity [strClassMin<<i, strClassMin<<(i+1)).
func strClassIdx(n int) int { return bits.Len32(uint32(n)) - 3 }

// strClassSize returns class idx's floor capacity in bytes.
func strClassSize(idx int) int { return strClassMin << idx }

// strSiteKeys are the alloc-census keys of the string path: "str:<class>"
// per capacity class, then "str:big" for requests above the ceiling, so
// string-path sites rank separately from cleanup-named normal sites in the
// sampled site profile. They are counted even under Options.NoStrPool, so
// an A/B pair reports comparable columns.
var strSiteKeys = func() []string {
	keys := make([]string, strClasses+1)
	for i := 0; i < strClasses; i++ {
		keys[i] = "str:" + strconv.Itoa(strClassSize(i))
	}
	keys[strClasses] = "str:big"
	return keys
}()

// strSiteKey returns the alloc-census key for class idx (-1 = above the
// ceiling).
func strSiteKey(idx int) string {
	if idx < 0 {
		return strSiteKeys[strClasses]
	}
	return strSiteKeys[idx]
}

// strPoolTake pops a parked block of capacity >= data from r's class-idx
// free list, probing at most strPoolProbe blocks newest-first. Each probe
// charges one ModeAlloc cycle (the list-entry inspection); the pop itself
// is free-list bookkeeping already covered by the allocator's fixed charge.
// Returns 0 when nothing fits.
func (rt *Runtime) strPoolTake(r *Region, idx, data int) Ptr {
	sp := r.st.pool
	if sp == nil {
		return 0
	}
	list := sp.classes[idx]
	n := len(list)
	probes := n
	if probes > strPoolProbe {
		probes = strPoolProbe
	}
	for i := 0; i < probes; i++ {
		rt.charge(stats.ModeAlloc, 1)
		b := list[n-1-i]
		if int(b.cap) >= data {
			copy(list[n-1-i:], list[n-i:])
			sp.classes[idx] = list[:n-1]
			if n == 1 {
				sp.mask &^= 1 << idx
			}
			sp.bytes -= uint64(b.cap)
			rt.t.StrParked[idx]--
			return b.p
		}
	}
	return 0
}

// strPoolPut parks the freed block [p, p+cap) on r's floor-class free list.
// The table is made at the first pooled free of the region's state; a reused
// state keeps the emptied table of the region it served before.
func (rt *Runtime) strPoolPut(r *Region, p Ptr, cap int) {
	sp := r.st.pool
	if sp == nil {
		sp = &strPool{}
		r.st.pool = sp
	}
	idx := strClassIdx(cap)
	sp.classes[idx] = append(sp.classes[idx], strBlock{p: p, cap: int32(cap)})
	sp.mask |= 1 << idx
	sp.bytes += uint64(cap)
	rt.t.StrParked[idx]++
}

// strAllocated reports whether [p, p+n) is string data r allocated: its
// pages are on r's string list, it starts past a page's first word and runs
// into no other entry, and on a one-page head entry it ends at the bump
// frontier. The caller has checked that r owns p's page. It reads only
// host-side state, the page index and r's mirrored strTop.
func (rt *Runtime) strAllocated(r *Region, p Ptr, n int) bool {
	if p%mem.PageSize < mem.WordSize {
		return false // an entry's link word, or no allocation starts there
	}
	end := uint64(p) + uint64(n)
	first, last := int(p>>mem.PageShift), int((end-1)>>mem.PageShift)
	if rt.pages.strAt(first) == 0 {
		return false
	}
	for pg := first + 1; pg <= last; pg++ {
		if rt.pages.ownerAt(pg) != r || rt.pages.strAt(pg) != strMore {
			return false
		}
	}
	top := r.st.strTop
	return top == 0 || last != int((top-1)>>mem.PageShift) || end <= uint64(top)
}

// strParked returns a block parked on the region's pool that overlaps
// [p, p+n), if any: freeing it again would file one extent twice.
func (st *regionState) strParked(p Ptr, n int) (strBlock, bool) {
	if st.pool == nil {
		return strBlock{}, false
	}
	for m := st.pool.mask; m != 0; m &= m - 1 {
		for _, b := range st.pool.classes[bits.TrailingZeros16(m)] {
			if p < b.p+Ptr(b.cap) && b.p < p+Ptr(n) {
				return b, true
			}
		}
	}
	return strBlock{}, false
}

// strPoolClear empties r's pool. The blocks' memory is reclaimed by the
// caller's page release or detach; this only retires the host-side lists
// and keeps the parked-block counts exact. The table, its lists cut to
// length 0, stays with the region's state, which the next region reuses
// (see retire), so region churn does not make a table per region.
func (rt *Runtime) strPoolClear(r *Region) {
	sp := r.st.pool
	if sp == nil {
		return
	}
	for idx, list := range sp.classes {
		rt.t.StrParked[idx] -= int64(len(list))
		sp.classes[idx] = list[:0]
	}
	sp.bytes, sp.mask = 0, 0
}

// StrClassStats is one capacity class's row of the reuse report.
type StrClassStats struct {
	Size       int    // class floor capacity in bytes
	New        uint64 // bump allocations accounted to this class
	Reuse      uint64 // allocations served from the pool
	Freed      uint64 // blocks parked by RstrFree
	FreeBlocks int    // blocks currently parked, summed over live regions
	FreeBytes  uint64 // their capacities
}

// StrPoolStats is the pooled string allocator's cumulative accounting:
// per-class New/Reuse/Freed plus the above-ceiling Big count. Host-side
// only; charges no simulated cycles.
type StrPoolStats struct {
	Enabled bool // false under Options.NoStrPool
	Ceiling int  // class ceiling in bytes
	New     uint64
	Reuse   uint64
	Big     uint64
	Freed   uint64
	Classes []StrClassStats
}

// ReuseRatio returns Reuse / (New + Reuse), the steady-state fraction of
// pool-eligible string allocations served without bumping (0 when nothing
// was allocated).
func (s StrPoolStats) ReuseRatio() float64 {
	total := s.New + s.Reuse
	if total == 0 {
		return 0
	}
	return float64(s.Reuse) / float64(total)
}

// StrPoolStats reports the runtime's string-pool counters and the current
// per-class occupancy across live regions.
func (rt *Runtime) StrPoolStats() StrPoolStats {
	out := StrPoolStats{
		Enabled: !rt.opts.NoStrPool,
		Ceiling: defaultStrPoolMax,
		Big:     rt.t.StrBig,
		Classes: make([]StrClassStats, strClasses),
	}
	for i := range out.Classes {
		c := &out.Classes[i]
		c.Size = strClassSize(i)
		c.New = rt.t.StrNew[i]
		c.Reuse = rt.t.StrReuse[i]
		c.Freed = rt.t.StrFreed[i]
		out.New += c.New
		out.Reuse += c.Reuse
		out.Freed += c.Freed
	}
	for _, r := range rt.regions {
		if r.st.deleted || r.st.pool == nil {
			continue
		}
		for idx, list := range r.st.pool.classes {
			out.Classes[idx].FreeBlocks += len(list)
			for _, b := range list {
				out.Classes[idx].FreeBytes += uint64(b.cap)
			}
		}
	}
	return out
}
