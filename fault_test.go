package regions_test

import (
	"errors"
	"testing"

	"regions"
)

// TestFaultInjectionPublicAPI is the end-to-end robustness smoke test: a
// fault plan installed through the public API makes allocations fail with
// typed errors, the heap verifies throughout, and service resumes when the
// plan is cleared.
func TestFaultInjectionPublicAPI(t *testing.T) {
	sys := regions.New()
	sys.SetFaultPlan(&regions.FaultPlan{FailProb: 0.5, Seed: 7})

	cln := sys.SizeCleanup(16)
	var live []*regions.Region
	ooms := 0
	for i := 0; i < 40; i++ {
		r, err := sys.TryNewRegion()
		if err != nil {
			if !errors.Is(err, regions.ErrOutOfMemory) {
				t.Fatalf("untyped error from TryNewRegion: %v", err)
			}
			var f *regions.Fault
			if !errors.As(err, &f) || f.Kind != regions.FaultOOM {
				t.Fatalf("error %v is not a FaultOOM regions.Fault", err)
			}
			ooms++
			continue
		}
		live = append(live, r)
		if _, err := sys.TryRalloc(r, 16, cln); err != nil {
			ooms++
		}
		if _, err := sys.TryRarrayAlloc(r, 200, 16, cln); err != nil {
			ooms++
		}
		if _, err := sys.TryRstrAlloc(r, 5000); err != nil {
			ooms++
		}
		if err := sys.Verify(); err != nil {
			t.Fatalf("Verify after round %d: %v", i, err)
		}
	}
	if ooms == 0 {
		t.Fatal("plan injected no failures; test is vacuous")
	}

	sys.SetFaultPlan(nil)
	for _, r := range live {
		if sys.Ralloc(r, 16, cln) == 0 {
			t.Fatal("allocation failed after the plan was cleared")
		}
		if !sys.DeleteRegion(r) {
			t.Fatal("delete failed after the plan was cleared")
		}
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify after drain: %v", err)
	}
}

// TestPageLimitPublicAPI checks the ulimit-style cap and the typed panic
// of the paper-shaped methods.
func TestPageLimitPublicAPI(t *testing.T) {
	sys := regions.New()
	sys.SetPageLimit(int(sys.MappedBytes()/4096) + 1)
	r := sys.NewRegion() // uses the one remaining page

	defer func() {
		f, ok := recover().(*regions.Fault)
		if !ok {
			t.Fatalf("expected a *regions.Fault panic, got %v", f)
		}
		if f.Kind != regions.FaultOOM || !errors.Is(f, regions.ErrOutOfMemory) {
			t.Fatalf("fault %v is not a typed OOM", f)
		}
	}()
	sys.RstrAlloc(r, 3*4096) // must panic: past the page limit
}

// TestFaultEventsReachTracer checks EvFault arrives through the public
// tracing surface.
func TestFaultEventsReachTracer(t *testing.T) {
	sys := regions.New()
	tr := regions.NewTracer(64)
	sys.SetTracer(tr)
	sys.SetFaultPlan(&regions.FaultPlan{FailNth: 1})
	if _, err := sys.TryNewRegion(); err == nil {
		t.Fatal("expected OOM")
	}
	for _, ev := range tr.Events() {
		if ev.Kind == regions.EvFault {
			return
		}
	}
	t.Fatal("no EvFault event in the trace")
}

// TestAllocatorArgumentFaults: an allocator call no allocation can satisfy
// — a negative size or count, or a cleanup the system never registered —
// is rejected with a typed FaultBadArgument before anything is charged or
// changed, and the paper-shaped allocator panics with the same fault.
func TestAllocatorArgumentFaults(t *testing.T) {
	const registered = -1 // stands for a registered cleanup
	for _, c := range []struct {
		name    string
		op      string
		n, size int
		cln     regions.CleanupID
	}{
		{"ralloc-negative-size", "ralloc", 1, -4, registered},
		{"ralloc-cleanup-0", "ralloc", 1, 16, 0},
		{"ralloc-unregistered-cleanup", "ralloc", 1, 16, 999},
		{"rarrayalloc-negative-count", "rarrayalloc", -1, 4, registered},
		{"rarrayalloc-negative-element-size", "rarrayalloc", 2, -4, registered},
		{"rarrayalloc-unregistered-cleanup", "rarrayalloc", 2, 4, 999},
		{"rstralloc-negative-size", "rstralloc", 1, -4, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := regions.New()
			cln := c.cln
			if cln == registered {
				cln = sys.SizeCleanup(16)
			}
			r := sys.NewRegion()
			alloc := func(try bool) (regions.Ptr, error) {
				switch {
				case c.op == "ralloc" && try:
					return sys.TryRalloc(r, c.size, cln)
				case c.op == "ralloc":
					return sys.Ralloc(r, c.size, cln), nil
				case c.op == "rarrayalloc" && try:
					return sys.TryRarrayAlloc(r, c.n, c.size, cln)
				case c.op == "rarrayalloc":
					return sys.RarrayAlloc(r, c.n, c.size, cln), nil
				case try:
					return sys.TryRstrAlloc(r, c.size)
				default:
					return sys.RstrAlloc(r, c.size), nil
				}
			}
			counters, mapped := *sys.Counters(), sys.MappedBytes()
			unchanged := func(when string) {
				t.Helper()
				if *sys.Counters() != counters || sys.MappedBytes() != mapped ||
					r.Bytes() != 0 || r.Allocs() != 0 {
					t.Errorf("%s: the rejected call changed the system", when)
				}
				if err := sys.Verify(); err != nil {
					t.Errorf("%s: Verify: %v", when, err)
				}
			}

			p, err := alloc(true)
			var f *regions.Fault
			if p != 0 || !errors.As(err, &f) || f.Kind != regions.FaultBadArgument {
				t.Fatalf("Try form returned %#x, %v; want 0 and a FaultBadArgument", p, err)
			}
			unchanged("Try form")

			func() {
				defer func() {
					if f, ok := recover().(*regions.Fault); !ok || f.Kind != regions.FaultBadArgument {
						t.Errorf("paper form panicked with %v, want a FaultBadArgument *Fault", f)
					}
				}()
				alloc(false)
			}()
			unchanged("paper form")
		})
	}
}
