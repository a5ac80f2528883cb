package mem

import (
	"errors"
	"testing"

	"regions/internal/stats"
)

func newFaultSpace() *Space { return NewSpace(&stats.Counters{}) }

func TestFailNthFailsExactlyThatCall(t *testing.T) {
	sp := newFaultSpace()
	sp.SetFaultPlan(&FaultPlan{FailNth: 3})
	for i := 1; i <= 5; i++ {
		p := sp.MapPages(1)
		if i == 3 && p != 0 {
			t.Fatalf("call 3 should have been refused, got %#x", p)
		}
		if i != 3 && p == 0 {
			t.Fatalf("call %d should have succeeded", i)
		}
	}
	if got := sp.OSCounts().MapFails; got != 1 {
		t.Fatalf("MapFails = %d, want 1", got)
	}
	f := sp.LastMapFailure()
	if f == nil || f.Cause != CauseFailNth || f.Pages != 1 {
		t.Fatalf("LastMapFailure = %+v, want CauseFailNth for 1 page", f)
	}
}

func TestFailProbIsDeterministicAcrossReinstall(t *testing.T) {
	plan := &FaultPlan{FailProb: 0.3, Seed: 42}
	run := func() []bool {
		sp := newFaultSpace()
		sp.SetFaultPlan(plan)
		out := make([]bool, 50)
		for i := range out {
			out[i] = sp.MapPages(1) == 0
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: refusal differs between identical runs", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("FailProb 0.3 over 50 calls injected no failures")
	}
	// Reinstalling on the same space must replay the schedule from call 1.
	sp := newFaultSpace()
	sp.SetFaultPlan(plan)
	first := sp.MapPages(1) == 0
	sp.SetFaultPlan(plan)
	if again := sp.MapPages(1) == 0; again != first {
		t.Fatal("reinstalling the plan did not restart the schedule")
	}
}

func TestByteBudgetRefusesPastBudget(t *testing.T) {
	sp := newFaultSpace()
	sp.SetFaultPlan(&FaultPlan{ByteBudget: 3 * PageSize})
	for i := 0; i < 3; i++ {
		if sp.MapPages(1) == 0 {
			t.Fatalf("page %d within budget was refused", i)
		}
	}
	if sp.MapPages(1) != 0 {
		t.Fatal("mapping past the byte budget succeeded")
	}
	if f := sp.LastMapFailure(); f == nil || f.Cause != CauseByteBudget {
		t.Fatalf("LastMapFailure = %+v, want CauseByteBudget", f)
	}
	// A multi-page request that would cross the budget fails even though a
	// single page would not have.
	sp2 := newFaultSpace()
	sp2.SetFaultPlan(&FaultPlan{ByteBudget: 3 * PageSize})
	if sp2.MapPages(2) == 0 {
		t.Fatal("2 pages within a 3-page budget refused")
	}
	if sp2.MapPages(2) != 0 {
		t.Fatal("2 pages crossing a 3-page budget succeeded")
	}
}

func TestPageLimitIsPermanentOSState(t *testing.T) {
	sp := newFaultSpace()
	sp.SetPageLimit(2)
	if sp.MapPages(2) == 0 {
		t.Fatal("pages within the limit were refused")
	}
	if sp.MapPages(1) != 0 {
		t.Fatal("page past the limit was granted")
	}
	if f := sp.LastMapFailure(); f == nil || f.Cause != CausePageLimit {
		t.Fatalf("LastMapFailure = %+v, want CausePageLimit", f)
	}
	// Unlike FailNth, the refusal repeats: the limit is OS state.
	if sp.MapPages(1) != 0 {
		t.Fatal("page limit stopped applying after one refusal")
	}
	sp.SetPageLimit(0)
	if sp.MapPages(1) == 0 {
		t.Fatal("removing the limit did not restore service")
	}
}

func TestMapCallCountersAndOOM(t *testing.T) {
	sp := newFaultSpace()
	sp.SetFaultPlan(&FaultPlan{FailNth: 2})
	sp.MapPages(1)
	sp.MapPages(3)
	sp.MapPages(1)
	if n := sp.OSCounts(); n.MapCalls != 3 || n.MapFails != 1 {
		t.Fatalf("MapCalls=%d MapFails=%d, want 3 and 1", n.MapCalls, n.MapFails)
	}
	err := sp.OOM("testop")
	if err.Op != "testop" || err.Pages != 3 || err.Cause != CauseFailNth {
		t.Fatalf("OOM() = %+v", err)
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("OOMError does not wrap ErrOutOfMemory")
	}
	var oe *OOMError
	if !errors.As(error(err), &oe) {
		t.Fatal("errors.As failed to extract *OOMError")
	}
}

func TestPoisonPageFree(t *testing.T) {
	sp := newFaultSpace()
	p := sp.MapPages(1)
	sp.Store(p, 123)
	sp.PoisonPageFree(p)
	var w0, wLast uint32
	sp.Uncharged(func() {
		w0 = sp.Load(p)
		wLast = sp.Load(p + PageSize - WordSize)
	})
	if w0 != PoisonWord || wLast != PoisonWord {
		t.Fatalf("poisoned page reads %#x / %#x, want %#x", w0, wLast, PoisonWord)
	}
}

func TestFaultPlanClearRestoresService(t *testing.T) {
	sp := newFaultSpace()
	sp.SetFaultPlan(&FaultPlan{FailProb: 1, Seed: 1})
	if sp.MapPages(1) != 0 {
		t.Fatal("FailProb 1 did not refuse")
	}
	sp.SetFaultPlan(nil)
	if sp.MapPages(1) == 0 {
		t.Fatal("clearing the plan did not restore service")
	}
}
