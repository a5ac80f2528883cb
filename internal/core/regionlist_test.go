package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"regions/internal/mem"
	"regions/internal/race"
)

// churn runs n create/delete cycles of empty regions.
func churn(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !rt.DeleteRegion(rt.NewRegion()) {
			t.Fatal("churn region not deletable")
		}
	}
}

// strCycle is one region lifetime of the string-recycling shape: create,
// allocate a string, free it into the region's pool, delete.
func strCycle(rt *Runtime) {
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 40)
	rt.RstrFree(r, p, 40)
	rt.DeleteRegion(r)
}

// TestHostAllocsRegionCycle: once warm, a region lifetime that pools a
// string allocates one Go object of 16 bytes, the Region handle. The
// region's state, string-pool table included, is reused from the previous
// region and the region list does not grow.
func TestHostAllocsRegionCycle(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt, _ := newRT(true)
	for i := 0; i < 100; i++ {
		strCycle(rt)
	}
	if got := testing.AllocsPerRun(1000, func() { strCycle(rt) }); got != 1 {
		t.Errorf("a warm region cycle allocates %.2f Go objects, want 1 (the Region)", got)
	}
	const cycles = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		strCycle(rt)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / cycles; got > 16 {
		t.Errorf("a warm region cycle allocates %d bytes, want 16 (the Region)", got)
	}
}

// TestHostAllocsRegionSize: the Region handle, the one object a region
// cycle allocates, is 16 bytes: the region's id and header address, and a
// pointer to the state the runtime reuses from region to region.
func TestHostAllocsRegionSize(t *testing.T) {
	if got := unsafe.Sizeof(Region{}); got != 16 {
		t.Errorf("Region is %d bytes, want 16", got)
	}
}

// TestHostAllocsRegionList: the region list holds the regions that own
// memory, not every region ever created.
func TestHostAllocsRegionList(t *testing.T) {
	rt, _ := newRT(true)
	for i := 0; i < 11_000; i++ {
		strCycle(rt)
	}
	if n := len(rt.regions); n != 1 {
		t.Errorf("after 11,000 region cycles the list holds %d entries, want 1", n)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionIDsAcrossCompactionAndImport: region ids count creations.
// They stay unique and increasing while the list is compacted and regions
// arrive by import, and neither a refused create nor a rolled-back import
// consumes one.
func TestRegionIDsAcrossCompactionAndImport(t *testing.T) {
	src, _ := newRT(true)
	rt, _ := newRT(true)
	for _, r := range []*Runtime{src, rt} {
		r.SizeCleanup(8)
		r.SizeCleanup(2 * mem.PageSize)
	}
	next := int32(0)
	want := func(r *Region) {
		t.Helper()
		if r.id != next {
			t.Fatalf("region id %d, want %d", r.id, next)
		}
		next++
	}
	var live []*Region
	for round := 0; round < 40; round++ {
		for i := 0; i < 7; i++ {
			r := rt.NewRegion()
			want(r)
			if i%3 == 0 {
				live = append(live, r)
			} else if !rt.DeleteRegion(r) {
				t.Fatal("delete failed")
			}
		}
		if round%10 == 9 {
			m := src.NewRegion()
			buildMigratable(src, m)
			rec, err := src.ExportRegion(m)
			if err != nil {
				t.Fatal(err)
			}
			in, err := rt.ImportRegion(rec)
			if err != nil {
				t.Fatal(err)
			}
			want(in)
			live = append(live, in)
		}
	}
	if got := rt.LiveRegions(); !slices.Equal(got, live) {
		t.Fatalf("LiveRegions has %d regions out of creation order, want %d", len(got), len(live))
	}
	if len(rt.regions) >= int(next) {
		t.Fatalf("the list holds %d of %d regions; it never compacted", len(rt.regions), next)
	}

	// A create the simulated OS refuses consumes no id.
	rt.Space().SetPageLimit(int(rt.Space().MappedBytes() / mem.PageSize))
	for len(rt.freePages) > 0 {
		live = append(live, rt.NewRegion())
		want(live[len(live)-1])
	}
	if _, err := rt.TryNewRegion(); err == nil {
		t.Fatal("TryNewRegion succeeded past the page limit")
	}
	// Nor does an import rolled back for want of pages.
	m := src.NewRegion()
	buildMigratable(src, m)
	rec, err := src.ExportRegion(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ImportRegion(rec); err == nil {
		t.Fatal("ImportRegion succeeded past the page limit")
	}
	rt.Space().SetPageLimit(0)
	want(rt.NewRegion())
	in, err := rt.ImportRegion(rec)
	if err != nil {
		t.Fatal(err)
	}
	want(in)
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDetachedRegionStaysListedUntilSwept: under DeferredDelete a deleted
// region keeps its place in the list while any of its detached pages
// awaits the sweeper, across every compaction, and the heap verifies at
// every step.
func TestDetachedRegionStaysListedUntilSwept(t *testing.T) {
	rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: true, SweepBudget: 1})
	d := rt.NewRegion()
	rt.RstrAlloc(d, 2*mem.PageSize) // a three-page span churn never reuses
	if !rt.DeleteRegion(d) {
		t.Fatal("delete failed")
	}
	check := func(listed bool) {
		t.Helper()
		if err := rt.Verify(); err != nil {
			t.Fatal(err)
		}
		if got := slices.Contains(rt.regions, d); got != listed {
			t.Fatalf("detached region listed=%v with %d unswept pages, want %v", got, d.st.unswept, listed)
		}
	}
	for i := 0; i < 200; i++ {
		churn(t, rt, 1)
		check(true)
	}
	for d.st.unswept > 0 {
		check(true)
		if rt.SweepSlice() == 0 {
			t.Fatal("sweep made no progress")
		}
	}
	for i := 0; i < 400 && slices.Contains(rt.regions, d); i++ {
		churn(t, rt, 1)
		if err := rt.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	check(false)
	if !d.Deleted() || d.Detached() {
		t.Fatalf("swept region reads %v", d)
	}
}

// TestCompactionKeepsReports: dropping dead regions from the list changes
// nothing Referrers, HeapReport or StrPoolStats report.
func TestCompactionKeepsReports(t *testing.T) {
	rt, regs := buildHealthyHeap(t)
	s := rt.RstrAlloc(regs[2], 64)
	rt.RstrFree(regs[2], s, 64)
	type reports struct {
		refs [][]Ref
		heap any
		pool StrPoolStats
	}
	read := func() reports {
		t.Helper()
		var out reports
		for _, r := range regs {
			out.refs = append(out.refs, rt.Referrers(r))
		}
		rep, err := rt.HeapReport()
		if err != nil {
			t.Fatal(err)
		}
		rep.CapturedCycle = 0
		out.heap = rep
		out.pool = rt.StrPoolStats()
		return out
	}
	before := read()
	churn(t, rt, 3000)
	if n := len(rt.regions); n > 2*len(regs)+2 {
		t.Fatalf("the list holds %d entries for %d live regions; it never compacted", n, len(regs))
	}
	if after := read(); !reflect.DeepEqual(before, after) {
		t.Errorf("reports changed across compaction:\nbefore %+v\nafter  %+v", before, after)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyCatchesUnsweptCountOfDroppedRegion: a detached region whose
// unswept count is corrupted to zero is dropped from the list at the next
// compaction, and Verify still reports it from the free lists.
func TestVerifyCatchesUnsweptCountOfDroppedRegion(t *testing.T) {
	rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: true})
	d := rt.NewRegion()
	rt.RstrAlloc(d, 2*mem.PageSize)
	if !rt.DeleteRegion(d) {
		t.Fatal("delete failed")
	}
	churn(t, rt, 1) // reuses d's home page, leaving its three-page span
	if d.st.unswept != 3 {
		t.Fatalf("detached region has %d unswept pages, want 3", d.st.unswept)
	}
	d.st.unswept = 0
	for i := 0; i < 100 && slices.Contains(rt.regions, d); i++ {
		churn(t, rt, 1)
	}
	if slices.Contains(rt.regions, d) {
		t.Fatal("the corrupted region was never dropped from the list")
	}
	wantInvariant(t, rt, "region unswept count 0, 3 of its detached pages")
}
