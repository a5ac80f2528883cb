package core

import (
	"reflect"
	"testing"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
)

func newRT(safe bool) (*Runtime, *stats.Counters) {
	c := &stats.Counters{}
	return NewRuntime(mem.NewSpace(c), safe), c
}

func TestRallocClearsAndMaps(t *testing.T) {
	rt, c := newRT(true)
	r := rt.NewRegion()
	cln := rt.SizeCleanup(16)
	p := rt.Ralloc(r, 16, cln)
	if p == 0 || p%4 != 0 {
		t.Fatalf("bad pointer %#x", p)
	}
	for i := 0; i < 16; i += 4 {
		if v := rt.Space().Load(p + Ptr(i)); v != 0 {
			t.Fatalf("ralloc memory not cleared at +%d: %#x", i, v)
		}
	}
	if rt.RegionOf(p) != r {
		t.Fatal("RegionOf(alloc) != allocating region")
	}
	if c.Allocs != 1 || c.BytesRequested != 16 {
		t.Fatalf("allocs=%d bytes=%d", c.Allocs, c.BytesRequested)
	}
	if r.Bytes() != 16 || r.Allocs() != 1 {
		t.Fatalf("region stats: %v", r)
	}
}

func TestSizeRounding(t *testing.T) {
	rt, c := newRT(true)
	r := rt.NewRegion()
	rt.Ralloc(r, 5, rt.SizeCleanup(5))
	if c.BytesRequested != 8 {
		t.Fatalf("bytes=%d, want 8 (rounded to nearest multiple of 4)", c.BytesRequested)
	}
}

func TestManyAllocationsSpanPages(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	cln := rt.SizeCleanup(100)
	var ptrs []Ptr
	for i := 0; i < 200; i++ { // ~21 KB, several pages
		p := rt.Ralloc(r, 100, cln)
		rt.Space().Store(p, uint32(i))
		ptrs = append(ptrs, p)
	}
	seen := map[Ptr]bool{}
	for i, p := range ptrs {
		if seen[p] {
			t.Fatalf("duplicate pointer %#x", p)
		}
		seen[p] = true
		if v := rt.Space().Load(p); v != uint32(i) {
			t.Fatalf("object %d clobbered: %d", i, v)
		}
		if rt.RegionOf(p) != r {
			t.Fatalf("object %d not mapped to region", i)
		}
	}
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed")
	}
}

func TestLargeAllocation(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	big := 3 * mem.PageSize // larger than a page: lifted prototype limit
	p := rt.Ralloc(r, big, rt.SizeCleanup(big))
	rt.Space().Store(p, 1)
	rt.Space().Store(p+Ptr(big)-4, 2)
	if rt.RegionOf(p+Ptr(big)-4) != r {
		t.Fatal("tail of large object not mapped to region")
	}
	// Small allocations continue to work and land in the region.
	q := rt.Ralloc(r, 8, rt.SizeCleanup(8))
	if rt.RegionOf(q) != r {
		t.Fatal("small alloc after large lost its region")
	}
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed")
	}
}

func TestRstrAlloc(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 40)
	if rt.RegionOf(p) != r {
		t.Fatal("string alloc not mapped to region")
	}
	rt.Space().Store(p, 0x12345678)
	// String data is never scanned: a value that looks like a region
	// pointer must not confuse deletion.
	q := rt.RstrAlloc(r, 8)
	rt.Space().Store(q, p) // looks like a pointer
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed")
	}
}

// cons builds the paper's Figure 3 list: struct list { int i; list @next; }.
func cons(rt *Runtime, cln CleanupID, r *Region, x uint32, l Ptr) Ptr {
	p := rt.Ralloc(r, 8, cln)
	rt.Space().Store(p, x) // p->i = x (not a pointer)
	rt.StorePtr(p+4, l)    // p->next = l (region write barrier)
	return p
}

func listCleanup(rt *Runtime, obj Ptr) int {
	rt.Destroy(rt.Space().Load(obj + 4))
	return 8
}

func TestListCopyExample(t *testing.T) {
	// The paper's Figure 3: copy a list into a temporary region, use it,
	// delete the temporary region.
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)

	main := rt.NewRegion()
	f := rt.PushFrame(2)
	defer rt.PopFrame()

	var l Ptr
	for i := 5; i >= 1; i-- {
		l = cons(rt, cln, main, uint32(i), l)
	}
	f.Set(0, l)

	tmp := rt.NewRegion()
	var copyList func(r *Region, l Ptr) Ptr
	copyList = func(r *Region, l Ptr) Ptr {
		if l == 0 {
			return 0
		}
		tail := copyList(r, rt.Space().Load(l+4))
		return cons(rt, cln, r, rt.Space().Load(l), tail)
	}
	cp := copyList(tmp, l)
	f.Set(1, cp)

	// The copy has the same values.
	for i, p := 1, cp; p != 0; i, p = i+1, rt.Space().Load(p+4) {
		if v := rt.Space().Load(p); v != uint32(i) {
			t.Fatalf("copy[%d] = %d", i, v)
		}
	}

	// With the local reference still live the delete must fail...
	if rt.DeleteRegion(tmp) {
		t.Fatal("delete succeeded despite live local reference")
	}
	// ...and succeed once the local is dead.
	f.Set(1, 0)
	if !rt.DeleteRegion(tmp) {
		t.Fatal("delete failed after clearing local")
	}
	// The original list is untouched.
	for i, p := 1, f.Get(0); p != 0; i, p = i+1, rt.Space().Load(p+4) {
		if v := rt.Space().Load(p); v != uint32(i) {
			t.Fatalf("original[%d] = %d after delete", i, v)
		}
	}
	if c.RegionsDeleted != 1 {
		t.Fatalf("RegionsDeleted=%d", c.RegionsDeleted)
	}
}

func TestSameRegionPointersNotCounted(t *testing.T) {
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	r := rt.NewRegion()
	var l Ptr
	for i := 0; i < 50; i++ {
		l = cons(rt, cln, r, uint32(i), l)
	}
	if rc := rt.RC(r); rc != 0 {
		t.Fatalf("rc=%d after same-region list build, want 0 (cyclic structures collectable)", rc)
	}
	if c.Barriers.SameRegion == 0 {
		t.Fatal("sameregion barrier counter did not move")
	}
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed")
	}
	if c.CleanupCalls != 50 {
		t.Fatalf("CleanupCalls=%d, want 50", c.CleanupCalls)
	}
}

func TestHeapReferenceBlocksDelete(t *testing.T) {
	rt, _ := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	a := rt.NewRegion()
	b := rt.NewRegion()
	target := cons(rt, cln, b, 42, 0)
	holder := cons(rt, cln, a, 1, target) // cross-region pointer a -> b

	if rt.RC(b) != 1 {
		t.Fatalf("rc=%d, want 1", rt.RC(b))
	}
	if rt.DeleteRegion(b) {
		t.Fatal("delete of referenced region succeeded")
	}
	rt.StorePtr(holder+4, 0)
	if rt.RC(b) != 0 {
		t.Fatalf("rc=%d after clearing, want 0", rt.RC(b))
	}
	if !rt.DeleteRegion(b) {
		t.Fatal("delete failed after clearing reference")
	}
}

func TestCleanupDestroysCrossRegionRefs(t *testing.T) {
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	a := rt.NewRegion()
	b := rt.NewRegion()
	// Ten objects in a, each pointing at an object in b.
	for i := 0; i < 10; i++ {
		cons(rt, cln, a, uint32(i), cons(rt, cln, b, uint32(i), 0))
	}
	if rt.RC(b) != 10 {
		t.Fatalf("rc=%d, want 10", rt.RC(b))
	}
	if rt.DeleteRegion(b) {
		t.Fatal("b should not be deletable")
	}
	if !rt.DeleteRegion(a) {
		t.Fatal("a should be deletable")
	}
	if rt.RC(b) != 0 {
		t.Fatalf("rc=%d after deleting a, want 0 (cleanups must destroy)", rt.RC(b))
	}
	if !rt.DeleteRegion(b) {
		t.Fatal("b should be deletable after a's cleanups ran")
	}
	if c.DestroyCalls == 0 {
		t.Fatal("no Destroy calls recorded")
	}
}

func TestArrayCleanupPerElement(t *testing.T) {
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("pair", func(rt *Runtime, obj Ptr) int {
		rt.Destroy(rt.Space().Load(obj))
		return 8
	})
	a := rt.NewRegion()
	b := rt.NewRegion()
	arr := rt.RarrayAlloc(a, 7, 8, cln)
	for i := 0; i < 7; i++ {
		elem := cons(rt, rt.RegisterCleanup("leaf", listCleanup), b, uint32(i), 0)
		rt.StorePtr(arr+Ptr(i*8), elem)
	}
	if rt.RC(b) != 7 {
		t.Fatalf("rc=%d, want 7", rt.RC(b))
	}
	if !rt.DeleteRegion(a) {
		t.Fatal("delete a failed")
	}
	if rt.RC(b) != 0 {
		t.Fatalf("rc=%d after array cleanup, want 0", rt.RC(b))
	}
	if c.DestroyCalls != 7 {
		t.Fatalf("DestroyCalls=%d, want 7", c.DestroyCalls)
	}
}

// TestSizeCleanupMatchesClosure: a size cleanup sizes its objects without
// a call and calls nothing per array element, yet heap reports, Verify and
// deletion see, count and charge exactly what they do for a cleanup
// function reporting the same size.
func TestSizeCleanupMatchesClosure(t *testing.T) {
	run := func(register func(rt *Runtime, name string, size int) CleanupID) (stats.Counters, metrics.HeapReport) {
		rt, c := newRT(true)
		obj, elem := register(rt, "obj", 20), register(rt, "elem", 4)
		r := rt.NewRegion()
		for i := 0; i < 300; i++ {
			p := rt.Ralloc(r, 20, obj)
			rt.StorePtr(p, p)
		}
		rt.RarrayAlloc(r, 90, 4, elem)
		rep, err := rt.HeapReport()
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Verify(); err != nil {
			t.Fatal(err)
		}
		if !rt.DeleteRegion(r) {
			t.Fatal("delete failed")
		}
		return *c, *rep
	}
	fnC, fnRep := run(func(rt *Runtime, name string, size int) CleanupID {
		return rt.RegisterCleanup(name, func(*Runtime, Ptr) int { return size })
	})
	sizeC, sizeRep := run((*Runtime).RegisterSizeCleanup)
	if sizeC != fnC {
		t.Errorf("counters differ:\nsize cleanup %+v\nfunction     %+v", sizeC, fnC)
	}
	if !reflect.DeepEqual(sizeRep, fnRep) {
		t.Errorf("heap reports differ:\nsize cleanup %+v\nfunction     %+v", sizeRep, fnRep)
	}
	if fnC.CleanupCalls != 301 {
		t.Errorf("CleanupCalls = %d, want 301 (one per object, the array once)", fnC.CleanupCalls)
	}
}

func TestGlobalWriteBarrier(t *testing.T) {
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	g := rt.AllocGlobals(1)
	r := rt.NewRegion()
	p := cons(rt, cln, r, 9, 0)

	rt.StoreGlobalPtr(g, p)
	if rt.RC(r) != 1 {
		t.Fatalf("rc=%d after global store, want 1", rt.RC(r))
	}
	if rt.DeleteRegion(r) {
		t.Fatal("delete succeeded with live global reference")
	}
	rt.StoreGlobalPtr(g, 0)
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed after clearing global")
	}
	if c.Barriers.Global != 2 {
		t.Fatalf("global barriers=%d, want 2", c.Barriers.Global)
	}
}

func TestStorePtrDynamic(t *testing.T) {
	rt, _ := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	g := rt.AllocGlobals(1)
	r := rt.NewRegion()
	p := cons(rt, cln, r, 9, 0)
	q := cons(rt, cln, r, 8, 0)

	rt.StorePtrDynamic(g, p) // global slot
	if rt.RC(r) != 1 {
		t.Fatalf("rc=%d, want 1", rt.RC(r))
	}
	rt.StorePtrDynamic(p+4, q) // region slot, sameregion value
	if rt.RC(r) != 1 {
		t.Fatalf("rc=%d after sameregion dynamic store, want 1", rt.RC(r))
	}
	rt.StorePtrDynamic(g, 0)
	if rt.RC(r) != 0 {
		t.Fatalf("rc=%d, want 0", rt.RC(r))
	}
}

func TestStackScanAndUnscan(t *testing.T) {
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	r := rt.NewRegion()

	outer := rt.PushFrame(1)
	outer.Set(0, cons(rt, cln, r, 1, 0))

	rt.PushFrame(0)
	// Deleting from the inner frame scans the outer frame and fails.
	if rt.DeleteRegion(r) {
		t.Fatal("delete succeeded despite outer local reference")
	}
	if rt.RC(r) != 1 {
		t.Fatalf("rc=%d after scan, want 1 (outer frame counted)", rt.RC(r))
	}
	if c.FramesScanned != 1 {
		t.Fatalf("FramesScanned=%d, want 1", c.FramesScanned)
	}
	// Returning to the outer frame unscans it.
	rt.PopFrame()
	if rt.RC(r) != 0 {
		t.Fatalf("rc=%d after unscan, want 0", rt.RC(r))
	}
	if c.FramesUnscanned != 1 {
		t.Fatalf("FramesUnscanned=%d, want 1", c.FramesUnscanned)
	}
	// Now the reference is only in the active frame; deleting still fails
	// (temporary count of the active frame) until the slot is cleared.
	if rt.DeleteRegion(r) {
		t.Fatal("delete succeeded despite active-frame reference")
	}
	outer.Set(0, 0)
	if !rt.DeleteRegion(r) {
		t.Fatal("delete failed with no references")
	}
	rt.PopFrame()
}

func TestDeepStackScanOnlyOnce(t *testing.T) {
	// After one failed delete scanned the stack, a second failed delete
	// from the same depth must not rescan the already-scanned frames.
	rt, c := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	r := rt.NewRegion()
	for i := 0; i < 10; i++ {
		f := rt.PushFrame(1)
		f.Set(0, cons(rt, cln, r, uint32(i), 0))
	}
	rt.DeleteRegion(r)
	first := c.FramesScanned
	if first != 9 { // all but the active frame
		t.Fatalf("FramesScanned=%d, want 9", first)
	}
	rt.DeleteRegion(r)
	if c.FramesScanned != first {
		t.Fatalf("second delete rescanned: %d -> %d", first, c.FramesScanned)
	}
	for i := 0; i < 10; i++ {
		rt.PopFrame()
	}
	if rt.RC(r) != 0 {
		t.Fatalf("rc=%d after full unwind, want 0", rt.RC(r))
	}
}

func TestUnsafeRuntime(t *testing.T) {
	rt, c := newRT(false)
	cln := rt.RegisterCleanup("list", listCleanup)
	a := rt.NewRegion()
	b := rt.NewRegion()
	p := cons(rt, cln, b, 1, 0)
	cons(rt, cln, a, 2, p) // cross-region reference

	f := rt.PushFrame(1)
	f.Set(0, p)

	// Unsafe deletion ignores all references.
	if !rt.DeleteRegion(b) {
		t.Fatal("unsafe delete failed")
	}
	rt.PopFrame()
	if c.Cycles[stats.ModeRC] != 0 || c.Cycles[stats.ModeScan] != 0 || c.Cycles[stats.ModeCleanup] != 0 {
		t.Fatalf("unsafe runtime charged safety cycles: rc=%d scan=%d cleanup=%d",
			c.Cycles[stats.ModeRC], c.Cycles[stats.ModeScan], c.Cycles[stats.ModeCleanup])
	}
	if c.CleanupCalls != 0 || c.DestroyCalls != 0 {
		t.Fatal("unsafe runtime ran cleanups")
	}
}

func TestSafetyCostObservable(t *testing.T) {
	run := func(safe bool) uint64 {
		rt, c := newRT(safe)
		cln := rt.RegisterCleanup("list", listCleanup)
		r := rt.NewRegion()
		s := rt.NewRegion()
		var l Ptr
		for i := 0; i < 100; i++ {
			l = cons(rt, cln, r, uint32(i), l)
			cons(rt, cln, s, uint32(i), l)
		}
		rt.DeleteRegion(s)
		rt.DeleteRegion(r)
		return c.TotalCycles()
	}
	safeCycles, unsafeCycles := run(true), run(false)
	if safeCycles <= unsafeCycles {
		t.Fatalf("safe (%d cycles) should cost more than unsafe (%d)", safeCycles, unsafeCycles)
	}
}

func TestPageRecycling(t *testing.T) {
	rt, _ := newRT(true)
	cln := rt.SizeCleanup(64)
	doWork := func() {
		r := rt.NewRegion()
		for i := 0; i < 500; i++ {
			rt.Ralloc(r, 64, cln)
		}
		if !rt.DeleteRegion(r) {
			t.Fatal("delete failed")
		}
	}
	doWork()
	after1 := rt.Space().MappedBytes()
	for i := 0; i < 20; i++ {
		doWork()
	}
	if got := rt.Space().MappedBytes(); got != after1 {
		t.Fatalf("pages not recycled: %d -> %d mapped bytes", after1, got)
	}
}

func TestRegionColoring(t *testing.T) {
	rt, _ := newRT(true)
	offsets := map[Ptr]bool{}
	for i := 0; i < 9; i++ {
		r := rt.NewRegion()
		offsets[r.hdr%mem.PageSize] = true
	}
	if len(offsets) < 8 {
		t.Fatalf("region structures use only %d distinct page offsets, want >= 8", len(offsets))
	}
	for off := range offsets {
		if off > colorMax+mem.WordSize {
			t.Fatalf("offset %d exceeds paper's maximum of %d", off, colorMax)
		}
	}
}

func TestDoubleDeletePanics(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.DeleteRegion(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double delete did not panic")
		}
	}()
	rt.DeleteRegion(r)
}

func TestAllocOnDeletedPanics(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.DeleteRegion(r)
	defer func() {
		if recover() == nil {
			t.Fatal("alloc on deleted region did not panic")
		}
	}()
	rt.Ralloc(r, 8, rt.SizeCleanup(8))
}

func TestBarrierDisciplineViolationDetected(t *testing.T) {
	// Writing a region pointer with a raw store and then overwriting it
	// through the barrier underflows the count, which must be detected.
	rt, _ := newRT(true)
	cln := rt.RegisterCleanup("list", listCleanup)
	g := rt.AllocGlobals(1)
	r := rt.NewRegion()
	p := cons(rt, cln, r, 1, 0)
	rt.Space().Store(g, p) // raw store: no increment
	defer func() {
		if recover() == nil {
			t.Fatal("rc underflow not detected")
		}
	}()
	rt.StoreGlobalPtr(g, 0) // decrement without matching increment
}

func TestRegionOfNonRegionAddresses(t *testing.T) {
	rt, _ := newRT(true)
	g := rt.AllocGlobals(4)
	if rt.RegionOf(0) != nil {
		t.Fatal("RegionOf(nil) != nil")
	}
	if rt.RegionOf(g) != nil {
		t.Fatal("RegionOf(global) != nil")
	}
	if rt.RegionOf(0xfffff000) != nil {
		t.Fatal("RegionOf(unmapped) != nil")
	}
}

func TestFramePooling(t *testing.T) {
	rt, _ := newRT(true)
	for i := 0; i < 100; i++ {
		f := rt.PushFrame(3)
		f.Set(0, 0)
		if f.Len() != 3 {
			t.Fatalf("frame len %d", f.Len())
		}
		if f.Get(1) != 0 || f.Get(2) != 0 {
			t.Fatal("recycled frame slots not cleared")
		}
		f.Set(1, 4096)
		rt.PopFrame()
	}
	if rt.Depth() != 0 {
		t.Fatalf("depth=%d", rt.Depth())
	}
}
