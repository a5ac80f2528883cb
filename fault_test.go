package regions_test

import (
	"errors"
	"math"
	"testing"

	"regions"
	"regions/internal/mem"
	"regions/internal/stats"
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
// — a negative size or count, a cleanup the system never registered, or
// more than one page-list entry of 4,096 pages holds, however the size
// arithmetic would wrap — is rejected with a typed FaultBadArgument before
// anything is charged or changed, and the paper-shaped allocator panics
// with the same fault.
func TestAllocatorArgumentFaults(t *testing.T) {
	const registered = -1 // stands for a registered cleanup
	const entry = 4096 * mem.PageSize
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
		// An entry's link word keeps its page count in 12 bits.
		{"ralloc-past-one-entry", "ralloc", 1, entry - mem.WordSize, registered},
		{"ralloc-size-overflow", "ralloc", 1, math.MaxInt - 1, registered},
		{"rarrayalloc-past-one-entry", "rarrayalloc", 4096, 4096, registered},
		{"rarrayalloc-size-overflow", "rarrayalloc", 1 << 33, 1 << 31, registered},
		{"rarrayalloc-count-past-its-word", "rarrayalloc", 1 << 32, 0, registered},
		{"rstralloc-past-one-entry", "rstralloc", 1, entry, 0},
		{"rstralloc-size-overflow", "rstralloc", 1, math.MaxInt, 0},
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

// TestLargestAllocations: the largest string, object and array one
// 4,096-page page-list entry holds are allocated, verify, and die with their
// region. One word more is a FaultBadArgument (TestAllocatorArgumentFaults).
func TestLargestAllocations(t *testing.T) {
	const entry = 4096 * mem.PageSize
	for _, c := range []struct {
		name  string
		bytes uint64
		alloc func(sys *regions.System, r *regions.Region) (regions.Ptr, error)
	}{
		{"rstralloc", entry - mem.WordSize, func(sys *regions.System, r *regions.Region) (regions.Ptr, error) {
			return sys.TryRstrAlloc(r, entry-mem.WordSize)
		}},
		{"ralloc", entry - 2*mem.WordSize, func(sys *regions.System, r *regions.Region) (regions.Ptr, error) {
			return sys.TryRalloc(r, entry-2*mem.WordSize, sys.SizeCleanup(entry-2*mem.WordSize))
		}},
		{"rarrayalloc", entry - 4*mem.WordSize, func(sys *regions.System, r *regions.Region) (regions.Ptr, error) {
			return sys.TryRarrayAlloc(r, (entry-4*mem.WordSize)/8, 8, sys.SizeCleanup(8))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := regions.New()
			r := sys.NewRegion()
			if p, err := c.alloc(sys, r); p == 0 || err != nil {
				t.Fatalf("allocation returned %#x, %v", p, err)
			}
			if r.Bytes() != c.bytes {
				t.Errorf("region holds %d bytes, want %d", r.Bytes(), c.bytes)
			}
			if err := sys.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !sys.DeleteRegion(r) {
				t.Fatal("delete failed")
			}
			if err := sys.Verify(); err != nil {
				t.Fatalf("Verify after delete: %v", err)
			}
		})
	}
}

// TestStringFreeAndGlobalStoreFaults: a string free or a global store no
// correct program makes is rejected with a typed FaultBadArgument before
// anything is charged or changed — the Try form returns it, the paper form
// panics with it — and the heap still verifies and the region still dies.
func TestStringFreeAndGlobalStoreFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		// misuse sets up r and returns the bad call in its Try form (nil
		// when there is none) and its paper form.
		misuse func(sys *regions.System, r *regions.Region) (try func() error, flat func())
		opts   []regions.Option
	}{
		{"rstrfree-wrong-size", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.RstrAlloc(r, 16)
			return func() error { return sys.TryRstrFree(r, p, 64) }, func() { sys.RstrFree(r, p, 64) }
		}, nil},
		{"rstrfree-into-next-entry", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.RstrAlloc(r, 4000)
			sys.RstrAlloc(r, 4000) // a second one-page entry
			return func() error { return sys.TryRstrFree(r, p, 4200) }, func() { sys.RstrFree(r, p, 4200) }
		}, nil},
		{"rstrfree-normal-object", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.Ralloc(r, 16, sys.SizeCleanup(16))
			return func() error { return sys.TryRstrFree(r, p, 16) }, func() { sys.RstrFree(r, p, 16) }
		}, nil},
		{"rstrfree-double", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.RstrAlloc(r, 16)
			sys.RstrFree(r, p, 16)
			return func() error { return sys.TryRstrFree(r, p, 16) }, func() { sys.RstrFree(r, p, 16) }
		}, nil},
		{"rstrfree-double-unpooled", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.RstrAlloc(r, 3000) // above the pool's ceiling: never parked
			sys.RstrFree(r, p, 3000)
			return func() error { return sys.TryRstrFree(r, p, 3000) }, func() { sys.RstrFree(r, p, 3000) }
		}, nil},
		{"rstrfree-size-zero", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.RstrAlloc(r, 16)
			return func() error { return sys.TryRstrFree(r, p, 0) }, func() { sys.RstrFree(r, p, 0) }
		}, nil},
		{"rstrfree-unaligned", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			p := sys.RstrAlloc(r, 16)
			return func() error { return sys.TryRstrFree(r, p+2, 12) }, func() { sys.RstrFree(r, p+2, 12) }
		}, nil},
		{"rstrfree-nil", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			sys.RstrAlloc(r, 16)
			return func() error { return sys.TryRstrFree(r, 0, 16) }, func() { sys.RstrFree(r, 0, 16) }
		}, nil},
		{"storeglobalptr-region-slot", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			cln := sys.SizeCleanup(16)
			slot, val := sys.Ralloc(r, 16, cln), sys.Ralloc(r, 16, cln)
			return nil, func() { sys.StoreGlobalPtr(slot, val) }
		}, nil},
		{"storeglobalptr-region-slot-unsafe", func(sys *regions.System, r *regions.Region) (func() error, func()) {
			cln := sys.SizeCleanup(16)
			slot, val := sys.Ralloc(r, 16, cln), sys.Ralloc(r, 16, cln)
			return nil, func() { sys.StoreGlobalPtr(slot, val) }
		}, []regions.Option{regions.Unsafe()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := regions.New(c.opts...)
			r := sys.NewRegion()
			try, flat := c.misuse(sys, r)
			counters, mapped, bytes := *sys.Counters(), sys.MappedBytes(), r.Bytes()
			unchanged := func(when string) {
				t.Helper()
				if *sys.Counters() != counters || sys.MappedBytes() != mapped || r.Bytes() != bytes {
					t.Errorf("%s: the rejected call changed the system", when)
				}
				if err := sys.Verify(); err != nil {
					t.Errorf("%s: Verify: %v", when, err)
				}
			}
			if try != nil {
				var f *regions.Fault
				if err := try(); !errors.As(err, &f) || f.Kind != regions.FaultBadArgument {
					t.Fatalf("Try form returned %v; want a FaultBadArgument", err)
				}
				unchanged("Try form")
			}
			func() {
				defer func() {
					if f, ok := recover().(*regions.Fault); !ok || f.Kind != regions.FaultBadArgument {
						t.Errorf("paper form panicked with %v, want a FaultBadArgument *Fault", f)
					}
				}()
				flat()
			}()
			unchanged("paper form")
			if ok, err := sys.TryDeleteRegion(r); !ok || err != nil {
				t.Errorf("TryDeleteRegion = %v, %v; want the region to die", ok, err)
			}
			if err := sys.Verify(); err != nil {
				t.Errorf("Verify after delete: %v", err)
			}
		})
	}
}

// TestAccessFaults: a load, store or barrier at an unmapped or unaligned
// address panics with a FaultBadArgument *Fault whose Err is the
// mem.AccessError, before anything is charged or counted, and the space
// stays in application mode: the next Store is charged to app as usual.
func TestAccessFaults(t *testing.T) {
	const unmapped = regions.Ptr(0x7fff0000)
	for _, c := range []struct {
		name      string
		unaligned bool // the address is an object's plus 2, else unmapped
		op        func(sys *regions.System, p regions.Ptr)
	}{
		{"load-unmapped", false, func(sys *regions.System, p regions.Ptr) { sys.Load(p) }},
		{"store-unmapped", false, func(sys *regions.System, p regions.Ptr) { sys.Store(p, 1) }},
		{"storeptr-unmapped", false, func(sys *regions.System, p regions.Ptr) { sys.StorePtr(p, 0) }},
		{"storeptr-unaligned", true, func(sys *regions.System, p regions.Ptr) { sys.StorePtr(p, 0) }},
		{"storeptrdynamic-unmapped", false, func(sys *regions.System, p regions.Ptr) { sys.StorePtrDynamic(p, 0) }},
		{"storeglobalptr-unmapped", false, func(sys *regions.System, p regions.Ptr) { sys.StoreGlobalPtr(p, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := regions.New()
			obj := sys.Ralloc(sys.NewRegion(), 16, sys.SizeCleanup(16))
			addr := unmapped
			if c.unaligned {
				addr = obj + 2
			}
			counters := *sys.Counters()
			func() {
				defer func() {
					r := recover()
					f, ok := r.(*regions.Fault)
					var ae mem.AccessError
					if !ok || f.Kind != regions.FaultBadArgument || !errors.As(f, &ae) || ae.Addr != addr {
						t.Errorf("panicked with %v, want a FaultBadArgument *Fault wrapping the AccessError at %#x", r, addr)
					}
				}()
				c.op(sys, addr)
			}()
			if *sys.Counters() != counters {
				t.Errorf("the faulting call changed the counters")
			}
			sys.Store(obj, 7)
			after := sys.Counters()
			if app := after.Cycles[stats.ModeApp] - counters.Cycles[stats.ModeApp]; app != mem.AppComputeFactor ||
				after.Cycles[stats.ModeRC] != counters.Cycles[stats.ModeRC] {
				t.Errorf("the next Store charged %d app and %d rc cycles, want %d app and none to rc",
					app, after.Cycles[stats.ModeRC]-counters.Cycles[stats.ModeRC], mem.AppComputeFactor)
			}
			if err := sys.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
		})
	}
}

// TestStaleHandleAfterStateReuse: once a region owns nothing — deleted,
// detached and swept, or exported — the system reuses its state for the
// next region. The dead handle still answers every call with the fault it
// gave before the reuse, naming the same kind, region and header address,
// and the call changes nothing; the new region's memory is the new
// handle's.
func TestStaleHandleAfterStateReuse(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []regions.Option
		kind regions.FaultKind
		kill func(sys *regions.System, r *regions.Region) error
	}{
		{"delete", nil, regions.FaultDeletedRegion, func(sys *regions.System, r *regions.Region) error {
			_, err := sys.TryDeleteRegion(r)
			return err
		}},
		{"detach-then-sweep", []regions.Option{regions.DeferredDelete()}, regions.FaultDeletedRegion,
			func(sys *regions.System, r *regions.Region) error {
				_, err := sys.TryDeleteRegion(r)
				sys.SweepDrain()
				return err
			}},
		{"export", nil, regions.FaultMigratedRegion, func(sys *regions.System, r *regions.Region) error {
			_, err := sys.ExportRegion(r)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := regions.New(c.opts...)
			cln := sys.SizeCleanup(8)
			r := sys.NewRegion()
			sys.Ralloc(r, 8, cln)
			sys.RstrFree(r, sys.RstrAlloc(r, 64), 64)
			if err := c.kill(sys, r); err != nil {
				t.Fatal(err)
			}
			_, err := sys.TryDeleteRegion(r)
			var first *regions.Fault
			if !errors.As(err, &first) || first.Kind != c.kind || first.Addr == 0 {
				t.Fatalf("the dead handle faults with %v, want a %v fault with its header address", err, c.kind)
			}

			next := sys.NewRegion()
			p := sys.Ralloc(next, 8, cln)
			if sys.RegionOf(p) != next {
				t.Fatal("RegionOf does not name the new region's handle")
			}
			counters, mapped := *sys.Counters(), sys.MappedBytes()
			want := func(op string, err error) {
				t.Helper()
				var f *regions.Fault
				if !errors.As(err, &f) || *f != *first {
					t.Errorf("%s on the dead handle returned %v, want %v", op, err, first)
				}
			}
			_, err = sys.TryRalloc(r, 8, cln)
			want("TryRalloc", err)
			_, err = sys.TryRarrayAlloc(r, 2, 8, cln)
			want("TryRarrayAlloc", err)
			_, err = sys.TryRstrAlloc(r, 8)
			want("TryRstrAlloc", err)
			want("TryRstrFree", sys.TryRstrFree(r, p, 8))
			ok, err := sys.TryDeleteRegion(r)
			want("TryDeleteRegion", err)
			rec, err := sys.ExportRegion(r)
			want("ExportRegion", err)
			if ok || rec != nil || sys.Exportable(r) {
				t.Error("the dead handle was deleted, exported or found exportable")
			}
			if *sys.Counters() != counters || sys.MappedBytes() != mapped ||
				next.Bytes() != 8 || next.Allocs() != 1 || r.Bytes() != 0 || r.Allocs() != 0 {
				t.Error("calls on the dead handle changed the system")
			}
			if err := sys.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCountFaults: a frame slot outside its frame (a popped frame has
// none), a negative frame size, a global reservation of a negative or
// unaddressable count and an array of more elements than its page-list
// entry has words panic with a FaultBadArgument *Fault before anything is
// charged or changed, and the heap still verifies.
func TestCountFaults(t *testing.T) {
	for _, c := range []struct {
		name string
		// bad sets up sys and returns the call no correct program makes.
		bad func(sys *regions.System) func()
	}{
		{"frame-set-past-end", func(sys *regions.System) func() {
			f := sys.PushFrame(2)
			return func() { f.Set(2, 0) }
		}},
		{"frame-get-negative", func(sys *regions.System) func() {
			f := sys.PushFrame(2)
			return func() { f.Get(-1) }
		}},
		{"popped-frame-set", func(sys *regions.System) func() {
			f := sys.PushFrame(1)
			sys.PopFrame()
			return func() { f.Set(0, 0) }
		}},
		{"pushframe-negative", func(sys *regions.System) func() { return func() { sys.PushFrame(-1) } }},
		{"allocglobals-negative", func(sys *regions.System) func() { return func() { sys.AllocGlobals(-1) } }},
		{"allocglobals-past-32-bits", func(sys *regions.System) func() { return func() { sys.AllocGlobals(1 << 30) } }},
		{"rarrayalloc-zero-size-elements", func(sys *regions.System) func() {
			r, cln := sys.NewRegion(), sys.SizeCleanup(0)
			return func() { sys.RarrayAlloc(r, 1<<31, 0, cln) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := regions.New()
			bad := c.bad(sys)
			counters, mapped := *sys.Counters(), sys.MappedBytes()
			func() {
				defer func() {
					p := recover()
					if f, ok := p.(*regions.Fault); !ok || f.Kind != regions.FaultBadArgument {
						t.Errorf("panicked with %v, want a FaultBadArgument *Fault", p)
					}
				}()
				bad()
			}()
			if *sys.Counters() != counters || sys.MappedBytes() != mapped {
				t.Error("the rejected call changed the system")
			}
			if err := sys.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
		})
	}
}

// TestArrayCountIsNotAPointer: an array's element count and element size
// are bookkeeping, not scanned data, so a count that equals an address in
// another region neither fails Verify nor shows as a referrer nor keeps
// that region alive.
func TestArrayCountIsNotAPointer(t *testing.T) {
	sys := regions.New()
	r1, r2 := sys.NewRegion(), sys.NewRegion()
	hdr := sys.RstrAlloc(r2, 8) // an address on r2's first page
	sys.RarrayAlloc(r1, int(hdr), 0, sys.SizeCleanup(0))
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if refs := sys.Referrers(r2); len(refs) != 0 {
		t.Errorf("region#2 has referrers %v", refs)
	}
	if !sys.DeleteRegion(r2) || !sys.DeleteRegion(r1) {
		t.Error("a delete failed")
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("Verify after the deletes: %v", err)
	}
}

// TestZeroByteStringKeepsFrontier: a zero-byte RstrAlloc leaves the
// mirrored string frontier where it was, also when the string list's head
// is a full multi-page entry, which has none, and returns an address in
// its region, also when the head is one page filled to its last byte and
// the next page is another region's.
func TestZeroByteStringKeepsFrontier(t *testing.T) {
	for _, first := range []int{16, 4096 - 4, 3 * 4096} {
		sys := regions.New()
		r := sys.NewRegion()
		sys.RstrAlloc(r, first)
		sys.RstrAlloc(sys.NewRegion(), 16)
		if p := sys.RstrAlloc(r, 0); sys.RegionOf(p) != r {
			t.Errorf("after a %d-byte string: RegionOf(RstrAlloc(r, 0) = %#x) = %v, want %v", first, p, sys.RegionOf(p), r)
		}
		if err := sys.Verify(); err != nil {
			t.Errorf("after a %d-byte string: Verify: %v", first, err)
		}
		sys.RstrAlloc(r, 8)
		if err := sys.Verify(); err != nil {
			t.Errorf("after a %d-byte string and another: Verify: %v", first, err)
		}
	}
}
