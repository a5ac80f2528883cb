package core

import (
	"errors"
	"testing"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// Tests for the deferred-reclamation tier (Options.DeferredDelete, sweep.go):
// detach must leave the free lists bit-identical to synchronous deletion,
// the detached state must satisfy every heap invariant, sweep slices must
// respect their budget and eventually poison everything, and the allocation
// tax must bound debt without any cooperating idle loop.

// sweepRounds runs a mixed two-region allocate/delete workload and returns
// every address the allocators handed out, in order. perRound is called
// after each round's deletions (nil for none) — the hook the deferred runs
// use to drain or partially sweep between rounds.
func sweepRounds(rt *Runtime, perRound func()) []Ptr {
	cln := rt.SizeCleanup(16)
	var addrs []Ptr
	for round := 0; round < 8; round++ {
		a := rt.NewRegion()
		b := rt.NewRegion()
		for i := 0; i < 30; i++ {
			addrs = append(addrs, rt.Ralloc(a, 16, cln))
			addrs = append(addrs, rt.RstrAlloc(b, 700))
		}
		// One multi-page span per round so the span free list (and its
		// detached runs) is exercised, not just single pages.
		addrs = append(addrs, rt.RstrAlloc(b, 3*mem.PageSize))
		if !rt.DeleteRegion(a) || !rt.DeleteRegion(b) {
			panic("sweepRounds: delete refused")
		}
		if perRound != nil {
			perRound()
		}
	}
	return addrs
}

// TestDeferredDeleteAddressStreamAndChargeParity checks the mode's two
// equivalence claims at once. With every round's debt drained before the
// next round reuses pages, (a) the allocation address stream is
// bit-identical to synchronous deletion — detach pushes the same free-list
// entries in the same order — and (b) the total simulated cycles match
// exactly: detach charges 1 per entry and the sweep 1 per page, against the
// synchronous 1+n per entry.
func TestDeferredDeleteAddressStreamAndChargeParity(t *testing.T) {
	run := func(deferred bool) ([]Ptr, uint64) {
		rt, c := newRTOpts(Options{Safe: true, DeferredDelete: deferred})
		var hook func()
		if deferred {
			hook = func() { rt.SweepDrain() }
		}
		addrs := sweepRounds(rt, hook)
		if deferred && rt.SweepDebt() != 0 {
			t.Fatalf("debt %d after drain", rt.SweepDebt())
		}
		if err := rt.Verify(); err != nil {
			t.Fatalf("Verify (deferred=%v): %v", deferred, err)
		}
		return addrs, c.TotalCycles()
	}
	syncAddrs, syncCycles := run(false)
	defAddrs, defCycles := run(true)
	if len(syncAddrs) != len(defAddrs) {
		t.Fatalf("allocation counts differ: sync %d, deferred %d", len(syncAddrs), len(defAddrs))
	}
	for i := range syncAddrs {
		if syncAddrs[i] != defAddrs[i] {
			t.Fatalf("address stream diverges at alloc %d: sync %#x, deferred %#x",
				i, syncAddrs[i], defAddrs[i])
		}
	}
	if syncCycles != defCycles {
		t.Fatalf("charge parity broken: sync %d cycles, deferred (fully swept) %d", syncCycles, defCycles)
	}
}

// TestDeferredDeleteInterleavedSweepMatchesSyncStream interleaves partial
// sweep slices with ongoing allocation, so pages are variously swept,
// detached, and reused-before-sweep — and the address stream must still
// match the synchronous run exactly. Reuse cancellation means the deferred
// run's total charge can only be lower (cancelled pages never pay their
// poison cycle), never higher.
func TestDeferredDeleteInterleavedSweepMatchesSyncStream(t *testing.T) {
	syncRT, syncC := newRTOpts(Options{Safe: true})
	syncAddrs := sweepRounds(syncRT, nil)
	syncCycles := syncC.TotalCycles()

	rt, c := newRTOpts(Options{Safe: true, DeferredDelete: true, SweepBudget: 3})
	round := 0
	defAddrs := sweepRounds(rt, func() {
		round++
		if round%3 == 1 {
			rt.SweepSlice() // partial: at most 3 of the round's pages
		}
		if err := rt.Verify(); err != nil {
			t.Fatalf("Verify after round %d: %v", round, err)
		}
	})
	rt.SweepDrain()
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after final drain: %v", err)
	}

	if len(syncAddrs) != len(defAddrs) {
		t.Fatalf("allocation counts differ: sync %d, deferred %d", len(syncAddrs), len(defAddrs))
	}
	for i := range syncAddrs {
		if syncAddrs[i] != defAddrs[i] {
			t.Fatalf("address stream diverges at alloc %d: sync %#x, deferred %#x",
				i, syncAddrs[i], defAddrs[i])
		}
	}
	if got := c.TotalCycles(); got > syncCycles {
		t.Fatalf("deferred run charged %d cycles, more than synchronous %d", got, syncCycles)
	}
}

// TestVerifyDetachedStateAndSweepPoisons walks one region through the full
// deferred lifecycle: after DeleteRegion the region is detached and every
// heap invariant still holds; each sweep slice respects its page budget and
// keeps Verify clean; and once the debt reaches zero every page the region
// ever held reads as poison. The run is metered and traced, so the
// regions_sweep_* series and the sweep-slice trace events are checked in
// the same pass.
func TestVerifyDetachedStateAndSweepPoisons(t *testing.T) {
	const budget = 4
	reg := metrics.NewRegistry()
	rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: true, SweepBudget: budget})
	rt.SetMetrics(reg)
	tr := trace.New(1024)
	rt.SetTracer(tr)

	r := rt.NewRegion()
	var addrs []Ptr
	addrs = append(addrs, rt.RstrAlloc(r, 2*mem.PageSize+100)) // multi-page span
	for i := 0; i < 8; i++ {
		addrs = append(addrs, rt.RstrAlloc(r, 900))
	}
	addrs = append(addrs, rt.Ralloc(r, 24, rt.SizeCleanup(24)))

	if !rt.DeleteRegion(r) {
		t.Fatal("delete refused")
	}
	debt := rt.SweepDebt()
	if debt == 0 {
		t.Fatal("deferred delete left no sweep debt")
	}
	if !r.Detached() {
		t.Fatal("region not detached after deferred delete")
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify in detached state: %v", err)
	}
	rep, err := rt.HeapReport()
	if err != nil {
		t.Fatalf("HeapReport in detached state: %v", err)
	}
	if rep.DetachedPages != debt {
		t.Fatalf("heap report counts %d detached pages, sweep debt is %d", rep.DetachedPages, debt)
	}
	if v, _ := reg.Snapshot().Gauge("regions_sweep_debt_pages"); int(v) != debt {
		t.Fatalf("debt gauge %d, runtime reports %d", v, debt)
	}

	for rt.SweepDebt() > 0 {
		n := rt.SweepSlice()
		if n < 1 || n > budget {
			t.Fatalf("slice swept %d pages, budget %d", n, budget)
		}
		if err := rt.Verify(); err != nil {
			t.Fatalf("Verify mid-sweep (debt %d): %v", rt.SweepDebt(), err)
		}
	}
	if r.Detached() {
		t.Fatal("region still detached with zero debt")
	}
	if rt.SweptPages() != uint64(debt) || rt.SweepSlices() == 0 {
		t.Fatalf("swept %d pages in %d slices, want %d pages", rt.SweptPages(), rt.SweepSlices(), debt)
	}

	// Every address the region handed out is on a swept page now; dangling
	// reads must be unmistakable.
	rt.Space().Uncharged(func() {
		for _, a := range addrs {
			if v := rt.Space().Load(a); v != mem.PoisonWord {
				t.Fatalf("swept page reads %#x at %#x, want poison %#x", v, a, mem.PoisonWord)
			}
		}
	})

	snap := reg.Snapshot()
	if v, _ := snap.Gauge("regions_sweep_debt_pages"); v != 0 {
		t.Fatalf("debt gauge %d after drain, want 0", v)
	}
	if v, _ := snap.Counter("regions_swept_pages_total"); v != uint64(debt) {
		t.Fatalf("swept-pages counter %d, want %d", v, debt)
	}
	if v, _ := snap.Counter("regions_sweep_slices_total"); v != rt.SweepSlices() {
		t.Fatalf("slice counter %d, runtime ran %d", v, rt.SweepSlices())
	}
	slices := 0
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindSweepSlice {
			continue
		}
		slices++
		if ev.Size < 1 || ev.Size > budget {
			t.Fatalf("trace records a %d-page slice, budget %d", ev.Size, budget)
		}
	}
	if uint64(slices) != rt.SweepSlices() {
		t.Fatalf("trace has %d sweep-slice events, runtime ran %d", slices, rt.SweepSlices())
	}
}

// TestSweepDebtBoundedByAllocationTax runs a hostile delete-heavy loop that
// never volunteers an idle cycle: regions are created and deleted in bulk
// with no manual SweepSlice calls. The allocation tax alone must hold the
// debt under highWater + budget between delete phases, so the all-time peak
// stays below that bound plus one phase's worth of pages.
func TestSweepDebtBoundedByAllocationTax(t *testing.T) {
	const budget, highWater = 8, 32
	rt, _ := newRTOpts(Options{
		Safe: true, DeferredDelete: true,
		SweepBudget: budget, SweepHighWater: highWater,
	})
	perRound := 0
	for round := 0; round < 25; round++ {
		var regs []*Region
		for i := 0; i < 12; i++ {
			r := rt.NewRegion()
			for j := 0; j < 6; j++ {
				rt.RstrAlloc(r, mem.PageSize/2)
			}
			regs = append(regs, r)
		}
		// The allocation phase acquired a phase's worth of pages, each
		// acquisition sweeping a slice while debt sat above the high-water
		// mark — so the debt entering the delete phase must be taxed back
		// under control no matter how much the previous deletes piled up.
		if d := rt.SweepDebt(); d > highWater+budget {
			t.Fatalf("round %d enters its delete phase with debt %d; the tax should hold it at or under %d",
				round, d, highWater+budget)
		}
		for _, r := range regs {
			if !rt.DeleteRegion(r) {
				t.Fatal("delete refused")
			}
		}
		if round == 0 {
			perRound = rt.SweepDebt() // one phase's pages, measured from zero debt
		}
		if round%5 == 0 {
			if err := rt.Verify(); err != nil {
				t.Fatalf("Verify at round %d: %v", round, err)
			}
		}
	}
	if peak := rt.SweepDebtPeak(); peak > highWater+budget+perRound {
		t.Fatalf("peak debt %d pages exceeds bound %d (highWater %d + budget %d + one phase %d)",
			peak, highWater+budget+perRound, highWater, budget, perRound)
	}
	if rt.SweepSlices() == 0 {
		t.Fatal("the allocation tax never ran a slice; the bound was not exercised")
	}
	rt.SweepDrain()
	if rt.SweepDebt() != 0 {
		t.Fatalf("debt %d after drain", rt.SweepDebt())
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after drain: %v", err)
	}
}

// TestReuseBeforeSweepCancelsDebt allocates straight back into pages a
// deferred deletion just detached: the acquire path re-zeroes them, so
// their debt must disappear without the sweeper running — cancellation is
// free, not deferred work in disguise.
func TestReuseBeforeSweepCancelsDebt(t *testing.T) {
	rt, _ := newRTOpts(Options{
		Safe: true, DeferredDelete: true,
		SweepHighWater: 1 << 20, // keep the allocation tax out of the picture
	})
	r1 := rt.NewRegion()
	for i := 0; i < 12; i++ {
		rt.RstrAlloc(r1, mem.PageSize/2)
	}
	if !rt.DeleteRegion(r1) {
		t.Fatal("delete refused")
	}
	d0 := rt.SweepDebt()
	if d0 == 0 {
		t.Fatal("no debt after deferred delete")
	}
	r2 := rt.NewRegion()
	for i := 0; i < 12; i++ {
		rt.RstrAlloc(r2, mem.PageSize/2)
	}
	if d := rt.SweepDebt(); d >= d0 {
		t.Fatalf("reuse cancelled nothing: debt %d -> %d", d0, d)
	}
	if rt.SweptPages() != 0 {
		t.Fatalf("cancellation counted as sweeping: %d pages", rt.SweptPages())
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after reuse: %v", err)
	}
	if !rt.DeleteRegion(r2) {
		t.Fatal("second delete refused")
	}
	rt.SweepDrain()
	if rt.SweepDebt() != 0 {
		t.Fatalf("debt %d after drain", rt.SweepDebt())
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify after drain: %v", err)
	}
}

// TestDetachedRegionFaultOnDoubleDelete pins the fault kinds across the
// deferred lifecycle: operations on a detached region report
// FaultDetachedRegion (the state the offending pointer actually sees), and
// once the sweeper retires the last page the same misuse reports plain
// FaultDeletedRegion.
func TestDetachedRegionFaultOnDoubleDelete(t *testing.T) {
	rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: true})
	r := rt.NewRegion()
	rt.RstrAlloc(r, 600)
	if !rt.DeleteRegion(r) {
		t.Fatal("delete refused")
	}

	wantKind := func(err error, kind FaultKind) {
		t.Helper()
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("error %v does not unwrap to *Fault", err)
		}
		if f.Kind != kind {
			t.Fatalf("fault kind %v, want %v", f.Kind, kind)
		}
	}
	ok, err := rt.TryDeleteRegion(r)
	if ok || err == nil {
		t.Fatalf("double delete of detached region: ok=%v err=%v", ok, err)
	}
	wantKind(err, FaultDetachedRegion)
	if _, aerr := rt.TryRalloc(r, 8, rt.SizeCleanup(8)); aerr == nil {
		t.Fatal("allocation into detached region succeeded")
	} else {
		wantKind(aerr, FaultDetachedRegion)
	}

	rt.SweepDrain()
	ok, err = rt.TryDeleteRegion(r)
	if ok || err == nil {
		t.Fatalf("double delete of swept region: ok=%v err=%v", ok, err)
	}
	wantKind(err, FaultDeletedRegion)
}

// TestSweepTaxAccounting drives the allocation tax and checks that its
// cycles land in SweepTaxCycles, that the cycles are a subset of the
// sweeper's ordinary charges (the tax re-attributes, it never adds), and
// that each tax slice is bracketed by a sweep span pair on the tracer.
func TestSweepTaxAccounting(t *testing.T) {
	const budget, highWater = 4, 8
	rt, c := newRTOpts(Options{
		Safe: true, DeferredDelete: true,
		SweepBudget: budget, SweepHighWater: highWater,
	})
	tr := trace.New(1 << 12)
	rt.SetTracer(tr)

	for round := 0; round < 6; round++ {
		var regs []*Region
		for i := 0; i < 8; i++ {
			r := rt.NewRegion()
			for j := 0; j < 4; j++ {
				rt.RstrAlloc(r, mem.PageSize/2)
			}
			regs = append(regs, r)
		}
		for _, r := range regs {
			if !rt.DeleteRegion(r) {
				t.Fatal("delete refused")
			}
		}
	}
	if rt.SweepTaxSlices() == 0 {
		t.Fatal("the allocation tax never ran; the accounting was not exercised")
	}
	if rt.SweepTaxCycles() == 0 {
		t.Fatal("tax slices ran but SweepTaxCycles is 0")
	}
	if total := c.TotalCycles(); rt.SweepTaxCycles() >= total {
		t.Fatalf("tax cycles %d not a strict subset of total %d", rt.SweepTaxCycles(), total)
	}

	// Every tax slice emitted one sweep span pair on the runtime tracer,
	// stamped by the runtime clock; pairs must balance and sum to the
	// accounted cycles.
	var begins, ends int
	var spanCycles uint64
	var beginCycle uint64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindSpanBegin:
			if trace.SpanKind(ev.Aux) != trace.SpanSweep {
				t.Fatalf("unexpected span kind %d from core", ev.Aux)
			}
			begins++
			beginCycle = ev.Cycle
		case trace.KindSpanEnd:
			ends++
			spanCycles += ev.Cycle - beginCycle
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("span pairs unbalanced: %d begins, %d ends", begins, ends)
	}
	if uint64(begins) != rt.SweepTaxSlices() {
		t.Fatalf("%d span pairs for %d tax slices", begins, rt.SweepTaxSlices())
	}
	if spanCycles != rt.SweepTaxCycles() {
		t.Fatalf("span pairs cover %d cycles, accounting says %d", spanCycles, rt.SweepTaxCycles())
	}
}

// TestSweepTaxChargeParity pins the acceptance criterion at the runtime
// layer: the tax accounting and its spans are observability metadata, so a
// run with them (tracer attached) charges exactly the cycles of a run
// without.
func TestSweepTaxChargeParity(t *testing.T) {
	run := func(traced bool) uint64 {
		rt, c := newRTOpts(Options{
			Safe: true, DeferredDelete: true,
			SweepBudget: 4, SweepHighWater: 8,
		})
		if traced {
			rt.SetTracer(trace.New(1 << 10))
		}
		sweepRounds(rt, nil)
		rt.SweepDrain()
		return c.TotalCycles()
	}
	if on, off := run(true), run(false); on != off {
		t.Fatalf("traced run charged %d cycles, untraced %d", on, off)
	}
}
