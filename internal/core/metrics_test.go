package core

import (
	"runtime"
	"testing"
	"time"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
)

// TestSetMetricsDetachRemovesSource: SetMetrics(nil) takes the runtime's
// series out of the registry, its histograms together with its counters.
func TestSetMetricsDetachRemovesSource(t *testing.T) {
	reg := metrics.NewRegistry()
	rt, _ := newRT(true)
	rt.SetMetrics(reg)
	rt.Ralloc(rt.NewRegion(), 16, rt.SizeCleanup(16))
	snap := reg.Snapshot()
	if v, _ := snap.Counter("regions_core_allocs_total"); v != 1 {
		t.Fatalf("attached runtime reports %d allocations, want 1", v)
	}
	if h, ok := snap.Histogram("regions_core_alloc_size_bytes"); !ok || h.Count != 1 || h.Sum != 16 {
		t.Fatalf("attached runtime's alloc-size histogram = %+v, want one 16-byte allocation", h)
	}
	rt.SetMetrics(nil)
	snap = reg.Snapshot()
	if _, ok := snap.Counter("regions_core_allocs_total"); ok {
		t.Error("a detached runtime still reports its counters")
	}
	if h, ok := snap.Histogram("regions_core_alloc_size_bytes"); ok {
		t.Errorf("a detached runtime still reports its alloc-size histogram: %+v", h)
	}
}

// TestSitesAccumulateAcrossAttachments: like its histograms, a runtime's
// site counts accumulate across a detach and re-attach and across
// SetMetrics called twice, so the sites always sum to the alloc-size
// histogram, and an allocation made while detached counts in neither. A
// cleanup registered while detached gets its site all the same.
func TestSitesAccumulateAcrossAttachments(t *testing.T) {
	reg := metrics.NewRegistry()
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.SetMetrics(reg)
	rt.Ralloc(r, 16, rt.SizeCleanup(16))
	rt.SetMetrics(nil)
	if n := reg.Snapshot().CounterSum("regions_alloc_site_objects_total"); n != 0 {
		t.Errorf("a detached runtime still reports %d site objects", n)
	}
	rt.RstrAlloc(r, 8) // detached: counted in neither
	late := rt.RegisterCleanup("late", func(*Runtime, Ptr) int { return 24 })
	rt.SetMetrics(reg)
	rt.RstrAlloc(r, 8)
	rt.SetMetrics(reg)
	rt.Ralloc(r, 16, rt.SizeCleanup(16))
	rt.Ralloc(r, 24, late)
	first := reg.Snapshot()
	rt.Ralloc(r, 16, rt.SizeCleanup(16))
	snap := reg.Snapshot()
	h, _ := snap.Histogram("regions_core_alloc_size_bytes")
	objects := snap.CounterSum("regions_alloc_site_objects_total")
	bytes := snap.CounterSum("regions_alloc_site_bytes_total")
	if h.Count != 5 || objects != h.Count || bytes != h.Sum {
		t.Errorf("histogram counts %d allocations / %d bytes, sites %d / %d; want 5 of each, equal",
			h.Count, h.Sum, objects, bytes)
	}
	if v, _ := snap.Counter(`regions_alloc_site_objects_total{site="size16"}`); v != 3 {
		t.Errorf("size16 site counts %d objects across attachments, want 3", v)
	}
	if v, _ := snap.Counter(`regions_alloc_site_bytes_total{site="late"}`); v != 24 {
		t.Errorf("late site counts %d bytes, want 24", v)
	}
	if v, _ := snap.Counter(`regions_alloc_site_objects_total{site="str:8"}`); v != 1 {
		t.Errorf("str:8 site counts %d objects, want 1: the detached string counts nowhere", v)
	}
	const size16 = `regions_alloc_site_bytes_total{site="size16"}`
	v1, _ := first.Counter(size16)
	if v2, _ := snap.Counter(size16); v2-v1 != 16 {
		t.Errorf("size16 site's bytes between two snapshots = %d, want 16", v2-v1)
	}
}

// TestRegistryDoesNotKeepHeapAlive: the registry's source holds the
// runtime's counts, not the runtime, so a finished runtime's simulated
// memory is collectable while the registry lives on.
func TestRegistryDoesNotKeepHeapAlive(t *testing.T) {
	reg := metrics.NewRegistry()
	freed := make(chan struct{})
	func() {
		sp := mem.NewSpace(&stats.Counters{})
		rt := NewRuntimeOpts(sp, Options{Safe: true})
		rt.SetMetrics(reg)
		rt.Ralloc(rt.NewRegion(), 16, rt.SizeCleanup(16))
		runtime.SetFinalizer(sp, func(*mem.Space) { close(freed) })
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if v, _ := reg.Snapshot().Counter("regions_core_allocs_total"); v != 1 {
				t.Errorf("registry reads %d allocations after the runtime was freed, want 1", v)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the registry keeps a finished runtime's heap reachable")
		}
	}
}

// TestSiteCountsMatchHeapCensus: while no region is deleted every normal
// object is still live, so a metered runtime's site counters and the heap
// walk's by-site census, two independent counts, agree site by site. The
// string sites, which the walk cannot attribute, make up the rest of the
// runtime's allocation totals. Cleanups registered before and after
// metering both count.
func TestSiteCountsMatchHeapCensus(t *testing.T) {
	reg := metrics.NewRegistry()
	rt, c := newRT(true)
	early, empty := rt.SizeCleanup(16), rt.SizeCleanup(0)
	rt.SetMetrics(reg)
	late := rt.RegisterCleanup("late", func(*Runtime, Ptr) int { return 24 })
	var regs []*Region
	for i := 0; i < 3; i++ {
		r := rt.NewRegion()
		regs = append(regs, r)
		for j := 0; j < 10+i; j++ {
			rt.Ralloc(r, 16, early)
			rt.Ralloc(r, 24, late)
			rt.RstrAlloc(r, 5+j)
		}
		rt.Ralloc(r, 0, empty)
		rt.RarrayAlloc(r, 7, 10, late)
		rt.RarrayAlloc(r, 0, 4, early)
		rt.RstrAlloc(r, 5000)
		rt.RstrAlloc(r, 0)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	rep, err := rt.HeapReport()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	site := func(name string) (objects, bytes uint64) {
		objects, _ = snap.Counter(`regions_alloc_site_objects_total{site="` + name + `"}`)
		bytes, _ = snap.Counter(`regions_alloc_site_bytes_total{site="` + name + `"}`)
		return objects, bytes
	}
	if len(rep.Sites) != 3 {
		t.Fatalf("heap census has %d sites, want 3: %+v", len(rep.Sites), rep.Sites)
	}
	var objects, bytes uint64
	for _, s := range rep.Sites {
		o, b := site(s.Site)
		if o != s.Objects || b != s.Bytes {
			t.Errorf("site %s counts %d objects / %d bytes, the heap census %d / %d",
				s.Site, o, b, s.Objects, s.Bytes)
		}
		objects, bytes = objects+o, bytes+b
	}
	for _, k := range strSiteKeys {
		o, b := site(k)
		objects, bytes = objects+o, bytes+b
	}
	if objects != c.Allocs || bytes != c.BytesRequested {
		t.Errorf("sites sum to %d objects / %d bytes, the runtime counted %d / %d",
			objects, bytes, c.Allocs, c.BytesRequested)
	}
	if got := snap.CounterSum("regions_alloc_site_objects_total"); got != c.Allocs {
		t.Errorf("site objects sum to %d in the snapshot, want %d", got, c.Allocs)
	}
	if o, _ := site("str:big"); o != 2*uint64(len(regs)) {
		t.Errorf("str:big counts %d objects, want %d: each region's 5000-byte and zero-byte strings",
			o, 2*len(regs))
	}
}
