package regions_test

import (
	"fmt"

	"regions"
)

// Example reproduces the paper's Figure 1: a loop allocating arrays into a
// region, all reclaimed by one DeleteRegion.
func Example() {
	sys := regions.New()
	r := sys.NewRegion()
	for i := 0; i < 10; i++ {
		size := (i + 1) * 4
		x := sys.Ralloc(r, size, sys.SizeCleanup(size))
		sys.Store(x, uint32(i)) // work(i, x)
	}
	fmt.Println("allocations:", sys.Counters().Allocs)
	fmt.Println("deleted:", sys.DeleteRegion(r))
	fmt.Println("live bytes:", sys.Counters().LiveBytes)
	// Output:
	// allocations: 10
	// deleted: true
	// live bytes: 0
}

// ExampleSystem_DeleteRegion shows the safety rule: deletion fails while an
// external reference to the region's objects remains.
func ExampleSystem_DeleteRegion() {
	sys := regions.New()
	cln := sys.RegisterCleanup("cell", func(rt *regions.Runtime, obj regions.Ptr) int {
		rt.Destroy(rt.Space().Load(obj))
		return 4
	})
	r := sys.NewRegion()
	p := sys.Ralloc(r, 4, cln)

	g := sys.AllocGlobals(1)
	sys.StoreGlobalPtr(g, p) // a global now points into r
	fmt.Println("with global ref:", sys.DeleteRegion(r))
	sys.StoreGlobalPtr(g, 0)
	fmt.Println("after clearing: ", sys.DeleteRegion(r))
	// Output:
	// with global ref: false
	// after clearing:  true
}

// ExampleSystem_Referrers shows the debugging aid: when deletion fails,
// Referrers names the locations holding the region alive.
func ExampleSystem_Referrers() {
	sys := regions.New()
	cln := sys.RegisterCleanup("cell", func(rt *regions.Runtime, obj regions.Ptr) int {
		rt.Destroy(rt.Space().Load(obj))
		return 4
	})
	r := sys.NewRegion()
	p := sys.Ralloc(r, 4, cln)

	f := sys.PushFrame(1)
	defer sys.PopFrame()
	f.Set(0, p)

	fmt.Println("deletable:", sys.DeleteRegion(r))
	for _, ref := range sys.Referrers(r) {
		fmt.Println("held by:", ref.Kind)
	}
	// Output:
	// deletable: false
	// held by: frame
}

// ExampleSystem_RegionOf shows the paper's regionof operation.
func ExampleSystem_RegionOf() {
	sys := regions.New()
	a := sys.NewRegion()
	b := sys.NewRegion()
	p := sys.RstrAlloc(a, 16)
	q := sys.RstrAlloc(b, 16)
	fmt.Println(sys.RegionOf(p) == a, sys.RegionOf(q) == b, sys.RegionOf(0) == nil)
	// Output:
	// true true true
}

// ExampleSystem_trace shows the observability layer end to end: attach a
// tracer, run a region's whole life, and read the typed events back. The
// schema is documented in docs/OBSERVABILITY.md; cmd/regionstat -jsonl and
// -chrome write the same stream as JSONL and a Chrome timeline.
func ExampleSystem_trace() {
	sys := regions.New()
	t := regions.NewTracer(64)
	sys.SetTracer(t)

	r := sys.NewRegion()
	p := sys.Ralloc(r, 8, sys.SizeCleanup(8))
	g := sys.AllocGlobals(1)
	sys.StoreGlobalPtr(g, p) // global barrier fires, blocks deletion
	sys.DeleteRegion(r)      // refused: the global still points into r
	sys.StoreGlobalPtr(g, 0)
	sys.DeleteRegion(r) // cleanup runs, then the region dies

	for _, ev := range sys.Trace().Events() {
		fmt.Println(ev.Kind)
	}
	// Output:
	// region-create
	// ralloc
	// barrier-global
	// region-delete-fail
	// barrier-global
	// cleanup
	// region-delete
}
