package core

import (
	"testing"

	"regions/internal/mem"
)

func TestMultiPageSpanReuse(t *testing.T) {
	rt, _ := newRT(true)
	big := 5 * mem.PageSize
	use := func() {
		r := rt.NewRegion()
		p := rt.RstrAlloc(r, big)
		rt.Space().Store(p, 1)
		if !rt.DeleteRegion(r) {
			t.Fatal("delete failed")
		}
	}
	use()
	after := rt.Space().MappedBytes()
	for i := 0; i < 10; i++ {
		use()
	}
	if got := rt.Space().MappedBytes(); got != after {
		t.Fatalf("multi-page spans not reused: %d -> %d", after, got)
	}
}

func TestLargeArrayCleanupAcrossPages(t *testing.T) {
	// An array spanning several pages must have every element cleaned.
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("ptrcell", func(rt *Runtime, obj Ptr) int {
		rt.Destroy(rt.Space().Load(obj))
		return 16
	})
	a := rt.NewRegion()
	b := rt.NewRegion()
	const n = 600 // 600*16 = 9600 bytes: 3 pages
	arr := rt.RarrayAlloc(a, n, 16, cln)
	leaf := rt.RegisterCleanup("leaf", listCleanup)
	for i := 0; i < n; i++ {
		p := cons(rt, leaf, b, uint32(i), 0)
		rt.StorePtr(arr+Ptr(i*16), p)
	}
	if rt.RC(b) != n {
		t.Fatalf("rc=%d, want %d", rt.RC(b), n)
	}
	if !rt.DeleteRegion(a) {
		t.Fatal("delete a failed")
	}
	if rt.RC(b) != 0 {
		t.Fatalf("rc=%d after cleanup, want 0", rt.RC(b))
	}
	if c.DestroyCalls != n {
		t.Fatalf("DestroyCalls=%d, want %d", c.DestroyCalls, n)
	}
}

func TestStorePtrNilTransitions(t *testing.T) {
	rt, _ := newRT(true)
	cln := rt.RegisterCleanup("cell", listCleanup)
	r := rt.NewRegion()
	s := rt.NewRegion()
	obj := cons(rt, cln, r, 1, 0)
	tgt := cons(rt, cln, s, 2, 0)

	rt.StorePtr(obj+4, 0) // nil -> nil: no count changes
	if rt.RC(s) != 0 {
		t.Fatal("rc moved on nil->nil")
	}
	rt.StorePtr(obj+4, tgt) // nil -> s
	if rt.RC(s) != 1 {
		t.Fatalf("rc=%d", rt.RC(s))
	}
	rt.StorePtr(obj+4, tgt) // s -> s (same value): no net change
	if rt.RC(s) != 1 {
		t.Fatalf("rc=%d after same-value store", rt.RC(s))
	}
	rt.StorePtr(obj+4, 0) // s -> nil
	if rt.RC(s) != 0 {
		t.Fatalf("rc=%d", rt.RC(s))
	}
}

func TestStorePtrDynamicUnsafe(t *testing.T) {
	rt, c := newRT(false)
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 8)
	g := rt.AllocGlobals(1)
	rt.StorePtrDynamic(g, p)
	var v Word
	rt.Space().Uncharged(func() { v = rt.Space().Load(g) })
	if v != p {
		t.Fatal("dynamic store lost under unsafe runtime")
	}
	if c.Cycles[3] != 0 { // stats.ModeRC
		t.Fatal("unsafe dynamic store charged rc cycles")
	}
}

func TestSizeCleanupCached(t *testing.T) {
	rt, _ := newRT(true)
	a := rt.SizeCleanup(24)
	b := rt.SizeCleanup(24)
	cDiff := rt.SizeCleanup(32)
	if a != b {
		t.Fatal("same size produced different cleanup ids")
	}
	if a == cDiff {
		t.Fatal("different sizes share a cleanup id")
	}
}

func TestRegionStringer(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.RstrAlloc(r, 8)
	if s := r.String(); s == "" || r.Deleted() {
		t.Fatalf("String=%q deleted=%v", s, r.Deleted())
	}
	rt.DeleteRegion(r)
	if s := r.String(); s == "" || !r.Deleted() {
		t.Fatalf("after delete: String=%q", s)
	}
}

func TestRegisterNilCleanupPanics(t *testing.T) {
	rt, _ := newRT(true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.RegisterCleanup("bad", nil)
}

func TestInvalidCleanupIDPanics(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.Ralloc(r, 8, CleanupID(99))
}

func TestNegativeArrayAllocPanics(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rt.RarrayAlloc(r, -1, 8, rt.SizeCleanup(8))
}

func TestGlobalSegmentGrowth(t *testing.T) {
	rt, _ := newRT(true)
	// Exceed the initial global pages; the segment must grow seamlessly.
	var slots []Ptr
	for i := 0; i < 5000; i++ {
		slots = append(slots, rt.AllocGlobals(1))
	}
	seen := map[Ptr]bool{}
	for _, s := range slots {
		if seen[s] {
			t.Fatal("duplicate global slot")
		}
		seen[s] = true
		if rt.RegionOf(s) != nil {
			t.Fatal("global slot mapped to a region")
		}
	}
}
