package core

import (
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
)

// This file is the deferred-reclamation tier (Options.DeferredDelete),
// ROADMAP item 1: deleteregion split into detach + incremental sweep.
//
// The paper's deleteregion is amortized O(1) per allocated byte (Section
// 4.3), but the synchronous implementation pays the whole constant at the
// deletion point — cleanup walk, stack scan, and one poisoning pass over
// every page — which is exactly where a serving workload measures its tail
// latency. Detach-then-sweep re-schedules the per-page part of that
// constant without changing what any program can observe:
//
//   - Detach (detachEntry, called from TryDeleteRegion) performs the same
//     free-list pushes as releaseEntry, in the same order, so the reuse
//     order — and therefore the allocation address stream and every
//     checksum derived from it — is bit-identical to synchronous deletion.
//     The pages are flagged "detached" in the page index, queued on sweepq,
//     and counted as sweep debt; ownership is cleared, so the region is
//     unreachable the instant TryDeleteRegion returns, exactly as before.
//     Charge: 1 ModeFree cycle per page-list entry (the unlink), against
//     the synchronous 1+n.
//   - Sweep (sweepSlice) pays the deferred n: each slice poisons up to a
//     budget of flagged pages, charging 1 ModeFree cycle per page, and
//     clears their flags. Detach + sweep together charge what synchronous
//     deletion charges.
//   - Reuse before sweep (cancelDetached, called from acquirePages) simply
//     clears the flag and the debt: the acquire path re-zeroes every free
//     page it hands out, so a stale-contents page is as good as a poisoned
//     one, and its poisoning cost genuinely disappears.
//
// Debt is provably bounded: sweep slices run on idle cycles (the shard
// engine's dequeues, the serving simulator's modelled inter-arrival gaps),
// and when debt exceeds Options.SweepHighWater every page acquisition runs
// one slice first — the allocation tax. Each page of debt was detached by
// exactly one deletion of a page acquired earlier, and above the high-water
// mark every acquisition retires at least min(budget, debt) pages, so a
// hostile delete-heavy loop converges to at most highWater + one region's
// pages of debt instead of accumulating unswept memory.
//
// Invariant surface (enforced by Verify, see heap.go): a detached page is
// on exactly one free list, owned by no region, attributed to a deleted
// region whose unswept count sums its flags, present in sweepq, and exempt
// from the poison check until swept; the tally's SweepDebt equals the number of
// flagged pages. Dangling reads between detach and sweep see stale contents
// instead of poison — the only observable difference from synchronous
// deletion, and one the RC check already proved no tracked pointer can
// exercise.

// defaultSweepBudget is the pages one SweepSlice poisons when
// Options.SweepBudget is unset.
const defaultSweepBudget = 32

// sweepHighWaterFactor scales the default high-water mark from the budget.
const sweepHighWaterFactor = 8

// sweepEntry is one detached run of pages awaiting its sweep.
type sweepEntry struct {
	first Ptr
	pages int
}

func (rt *Runtime) sweepBudgetPages() int {
	if rt.opts.SweepBudget > 0 {
		return rt.opts.SweepBudget
	}
	return defaultSweepBudget
}

func (rt *Runtime) sweepHighWaterPages() int {
	if rt.opts.SweepHighWater > 0 {
		return rt.opts.SweepHighWater
	}
	return sweepHighWaterFactor * rt.sweepBudgetPages()
}

// detachEntry is releaseEntry's deferred twin: same free-list updates, same
// ownership clear, same PagesReleased count, but the pages keep their
// contents, get flagged as detached, and join the sweep queue as debt. The
// entry charges 1 ModeFree cycle; the per-page remainder is charged as the
// sweeper retires each page.
func (rt *Runtime) detachEntry(first Ptr, n int, r *Region) {
	rt.charge(stats.ModeFree, 1)
	rt.notePages(first, n, nil)
	rt.pages.setDetached(first, n, r)
	r.st.unswept += int32(n)
	rt.sweepq = append(rt.sweepq, sweepEntry{first: first, pages: n})
	rt.t.SweepDebt += n
	if rt.t.SweepDebt > rt.sweepPeak {
		rt.sweepPeak = rt.t.SweepDebt
	}
	rt.t.PagesReleased += uint64(n)
	if n > 1 {
		rt.spans.put(first, n)
		return
	}
	rt.freePages = append(rt.freePages, first)
}

// cancelDetached clears the detached flags of any flagged pages in the run
// about to be reused. The caller re-zeroes the pages, so their deferred
// poisoning is no longer owed; the debt just disappears. Host-side only —
// no simulated cycles, mirroring the uncharged poisoning it cancels.
func (rt *Runtime) cancelDetached(first Ptr, n int) {
	if rt.t.SweepDebt == 0 {
		return
	}
	for i := 0; i < n; i++ {
		pg := int(first>>mem.PageShift) + i
		if r := rt.pages.detachedAt(pg); r != nil {
			rt.undetach(pg, r)
		}
	}
}

// undetach clears page number pg's detached flag and its debt, for the
// sweep or a reuse. With r's last detached page the region owns nothing, so
// its state is retired.
func (rt *Runtime) undetach(pg int, r *Region) {
	rt.pages.clearDetached(pg)
	rt.t.SweepDebt--
	r.st.unswept--
	if r.st.unswept == 0 {
		rt.retire(r, &deletedState)
	}
}

// SweepSlice runs one bounded sweep slice: up to Options.SweepBudget
// detached pages are poisoned, charged (1 ModeFree cycle per page, the
// deferred half of synchronous deletion's 1+n), and removed from the debt.
// It returns the number of pages swept — 0 when there is no debt. Callers
// are the shard engine's idle loop, the serving simulator's modelled idle
// gaps, the allocation tax, and drains.
func (rt *Runtime) SweepSlice() int { return rt.sweepSlice(0) }

// sweepSlice sweeps up to budget pages (<= 0 means Options.SweepBudget).
// Queue entries whose pages were all reused in the meantime are dropped for
// free: cancellation cleared their flags, and every queued page is visited
// at most once over the queue's lifetime.
func (rt *Runtime) sweepSlice(budget int) int {
	if rt.t.SweepDebt == 0 {
		return 0
	}
	if budget <= 0 {
		budget = rt.sweepBudgetPages()
	}
	start := rt.c.TotalCycles()
	swept := 0
	for swept < budget && rt.sweepHead < len(rt.sweepq) {
		e := &rt.sweepq[rt.sweepHead]
		for e.pages > 0 && swept < budget {
			pg := int(e.first >> mem.PageShift)
			if r := rt.pages.detachedAt(pg); r != nil {
				rt.undetach(pg, r)
				rt.space.PoisonPageFree(e.first)
				rt.charge(stats.ModeFree, 1)
				swept++
			}
			e.first += mem.PageSize
			e.pages--
		}
		if e.pages == 0 {
			rt.sweepHead++
		}
	}
	if rt.sweepHead > 64 && rt.sweepHead*2 >= len(rt.sweepq) {
		rt.sweepq = append(rt.sweepq[:0], rt.sweepq[rt.sweepHead:]...)
		rt.sweepHead = 0
	}
	if swept == 0 {
		return 0
	}
	rt.t.SweptPages += uint64(swept)
	rt.t.SweepSlices++
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindSweepSlice, Region: -1,
			Size: int32(swept), Aux: int32(rt.t.SweepDebt)})
	}
	if rt.met != nil {
		metrics.Observe(sweepSliceCycleBounds[:], rt.t.SweepSliceCycles[:], &rt.t.SweepSliceCyclesSum, rt.c.TotalCycles()-start)
	}
	return swept
}

// sweepTaxSlice runs one sweep slice on behalf of a page acquisition — the
// allocation tax — and accounts its cycles in sweepTaxCycles so they can be
// attributed to "sweep" instead of the allocation phase they interrupted.
// When a tracer is attached the tax pause is bracketed in a sweep span pair
// (request -1: the pause belongs to the runtime, not to any one request —
// the serving layer re-attributes it per request from the cycle accounting).
func (rt *Runtime) sweepTaxSlice() {
	start := rt.c.TotalCycles()
	if rt.tracer != nil {
		rt.tracer.Emit(trace.SpanBegin(trace.SpanSweep, -1, -1, start))
	}
	swept := rt.sweepSlice(0)
	end := rt.c.TotalCycles()
	if rt.tracer != nil {
		rt.tracer.Emit(trace.SpanEnd(trace.SpanSweep, -1, -1, end))
	}
	if swept > 0 {
		rt.sweepTaxCycles += end - start
		rt.sweepTaxSlices++
	}
}

// SweepTaxCycles returns the cumulative simulated cycles spent in
// allocation-tax sweep slices. Callers (the serving simulator's phase
// recorder) take deltas around work they meter to carve the tax out of the
// interrupted phase.
func (rt *Runtime) SweepTaxCycles() uint64 { return rt.sweepTaxCycles }

// SweepTaxSlices returns how many allocation-tax slices retired pages.
func (rt *Runtime) SweepTaxSlices() uint64 { return rt.sweepTaxSlices }

// SweepDrain sweeps until no debt remains and returns the pages swept.
func (rt *Runtime) SweepDrain() int {
	total := 0
	for rt.t.SweepDebt > 0 {
		total += rt.sweepSlice(0)
	}
	return total
}

// SweepDebt returns the current detached-but-unswept page count.
func (rt *Runtime) SweepDebt() int { return rt.t.SweepDebt }

// SweepDebtPeak returns the highest sweep debt the runtime has ever carried.
func (rt *Runtime) SweepDebtPeak() int { return rt.sweepPeak }

// ResetSweepDebtPeak restarts the peak-debt watermark from the current debt,
// so a measurement window (a serving phase, an A/B arm) can report its own
// peak instead of the process lifetime's. Host-side only: no simulated
// cycles, no effect on the debt itself.
func (rt *Runtime) ResetSweepDebtPeak() { rt.sweepPeak = rt.t.SweepDebt }

// SweptPages returns the total pages the sweeper has poisoned (reused pages
// whose debt was cancelled are not counted).
func (rt *Runtime) SweptPages() uint64 { return rt.t.SweptPages }

// SweepSlices returns the number of sweep slices that retired at least one
// page.
func (rt *Runtime) SweepSlices() uint64 { return rt.t.SweepSlices }
