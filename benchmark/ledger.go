package main

import (
	"slices"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/stats"
)

// Call-ledger indices, in coreCalls order.
const (
	callNewRegion = iota
	callDeleteRegion
	callRalloc
	callRarrayAlloc
	callRstrAlloc
	callRstrFree
	callStorePtr
	callStoreGlobalPtr
	callFrame
	numCalls
)

// coreCalls names the region-runtime entry points the paper applications
// call. "frame" is PushFrame and PopFrame together.
var coreCalls = [numCalls]string{"newregion", "deleteregion", "ralloc", "rarrayalloc",
	"rstralloc", "rstrfree", "storeptr", "storeglobalptr", "frame"}

// ledger attributes the simulated cycles of a traced paper-apps repetition
// to the region-runtime calls they were charged in, and times each call on
// the host clock. Whatever no call charged is the applications' own work:
// their accesses and the stalls those cause.
type ledger struct {
	calls   [numCalls]uint64
	hostNS  [numCalls]int64
	cycles  [numCalls]uint64
	appIn   uint64 // application-mode cycles charged inside calls
	stallIn uint64 // stall cycles charged inside calls
	// latency is every call's simulated cycles: the paper-apps latency
	// population.
	latency counts
}

// wrap returns e with every call charged to l.
func (l *ledger) wrap(e appkit.RegionEnv) appkit.RegionEnv {
	return &meteredEnv{RegionEnv: e, c: e.Counters(), led: l}
}

// meteredEnv is a region environment that charges each call to a ledger.
// Cleanups run inside DeleteRegion against the unwrapped environment, so
// calls never nest and their cycles belong to the deletion that triggered
// them.
type meteredEnv struct {
	appkit.RegionEnv
	c   *stats.Counters
	led *ledger
}

// mark holds the clocks at a call's entry.
type mark struct {
	t                 time.Time
	total, app, stall uint64
}

func (e *meteredEnv) enter() mark {
	c := e.c
	return mark{time.Now(), c.TotalCycles(), c.Cycles[stats.ModeApp], c.ReadStalls + c.WriteStalls}
}

func (e *meteredEnv) leave(k int, m mark) {
	c, l := e.c, e.led
	cyc := c.TotalCycles() - m.total
	l.calls[k]++
	l.hostNS[k] += time.Since(m.t).Nanoseconds()
	l.cycles[k] += cyc
	l.appIn += c.Cycles[stats.ModeApp] - m.app
	l.stallIn += c.ReadStalls + c.WriteStalls - m.stall
	l.latency.add(cyc)
}

func (e *meteredEnv) NewRegion() appkit.Region {
	defer e.leave(callNewRegion, e.enter())
	return e.RegionEnv.NewRegion()
}

func (e *meteredEnv) DeleteRegion(r appkit.Region) bool {
	defer e.leave(callDeleteRegion, e.enter())
	return e.RegionEnv.DeleteRegion(r)
}

func (e *meteredEnv) Ralloc(r appkit.Region, size int, cln appkit.CleanupID) appkit.Ptr {
	defer e.leave(callRalloc, e.enter())
	return e.RegionEnv.Ralloc(r, size, cln)
}

func (e *meteredEnv) RarrayAlloc(r appkit.Region, n, elemSize int, cln appkit.CleanupID) appkit.Ptr {
	defer e.leave(callRarrayAlloc, e.enter())
	return e.RegionEnv.RarrayAlloc(r, n, elemSize, cln)
}

func (e *meteredEnv) RstrAlloc(r appkit.Region, size int) appkit.Ptr {
	defer e.leave(callRstrAlloc, e.enter())
	return e.RegionEnv.RstrAlloc(r, size)
}

func (e *meteredEnv) RstrFree(r appkit.Region, p appkit.Ptr, size int) {
	defer e.leave(callRstrFree, e.enter())
	e.RegionEnv.RstrFree(r, p, size)
}

func (e *meteredEnv) StorePtr(slot, val appkit.Ptr) {
	defer e.leave(callStorePtr, e.enter())
	e.RegionEnv.StorePtr(slot, val)
}

func (e *meteredEnv) StoreGlobalPtr(slot, val appkit.Ptr) {
	defer e.leave(callStoreGlobalPtr, e.enter())
	e.RegionEnv.StoreGlobalPtr(slot, val)
}

func (e *meteredEnv) PushFrame(n int) appkit.Frame {
	defer e.leave(callFrame, e.enter())
	return e.RegionEnv.PushFrame(n)
}

func (e *meteredEnv) PopFrame() {
	defer e.leave(callFrame, e.enter())
	e.RegionEnv.PopFrame()
}

// counts is a population of cycle counts kept as exact per-value tallies,
// so its order statistics are exact without storing every sample.
type counts struct {
	small [1 << 12]uint64 // tallies of the values below len(small)
	large []uint64        // larger values, kept one by one
	n     uint64
}

func (h *counts) add(v uint64) {
	h.n++
	if v < uint64(len(h.small)) {
		h.small[v]++
		return
	}
	h.large = append(h.large, v)
}

// quantile returns the ceil(q*n)-th smallest value, the same order
// statistic as trace.QuantileExact, or 0 for an empty population.
func (h *counts) quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for v, c := range h.small {
		if seen += c; seen >= rank {
			return uint64(v)
		}
	}
	slices.Sort(h.large)
	return h.large[rank-seen-1]
}

// max returns the largest value, or 0 for an empty population.
func (h *counts) max() uint64 { return h.quantile(1) }
