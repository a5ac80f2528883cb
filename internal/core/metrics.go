package core

import (
	"strconv"

	"regions/internal/metrics"
	"regions/internal/stats"
)

// This file wires the runtime into the live metrics registry
// (internal/metrics). Every series is pulled: the runtime keeps
// stats.Counters and its Tally whether or not a registry is attached, and a
// registry reads them at Snapshot time. A metered runtime also keeps its
// four histograms in the Tally and counts every allocation at its site;
// an unmetered runtime holds a nil *runtimeMetrics and every observation
// site pays one predicate, the same contract as SetTracer. All of it is
// host-side bookkeeping outside the machine model — it charges no
// simulated cycles and leaves stats.Counters identical to a bare run.

// Histogram bucket bounds. Alloc sizes follow the power-of-two spread of
// the paper's benchmark object sizes; region lifetimes span the decades
// between a scratch region and a whole-run region; barrier latencies
// bracket the Figure 5 instruction counts (12-30 extra cycles plus memory
// accesses).
var (
	allocSizeBounds      = [...]uint64{16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
	regionLifetimeBounds = [...]uint64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}
	barrierCycleBounds   = [...]uint64{4, 8, 16, 24, 32, 48, 64, 128}
	// Sweep-slice cycle bounds bracket the per-slice charge (1 cycle per
	// swept page) up to and past the default 32-page budget.
	sweepSliceCycleBounds = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}
)

// Tally is the runtime's host-side counts beside stats.Counters: the
// translation cache, reference-count updates, page traffic, the sweeper,
// and the string pool. Like stats.Counters it is plain data the runtime
// keeps whether or not a registry is attached, and none of it charges a
// simulated cycle.
type Tally struct {
	// LRHits and LRMisses count last-region cache probes. Every miss is one
	// dense page-index lookup; PageIndexHits of them found a region.
	LRHits, LRMisses, PageIndexHits uint64
	RCIncs, RCDecs                  uint64
	// BarrierFast counts region writes that took the cached fast path.
	BarrierFast uint64
	// PagesAcquired and PagesReleased count pages handed to regions, from
	// any source, and pages taken back by deletion, detach or export.
	PagesAcquired, PagesReleased uint64

	// SweepDebt is the detached-but-unswept page count (sweep.go);
	// SweptPages and SweepSlices count the sweeper's work.
	SweepDebt               int
	SweptPages, SweepSlices uint64

	// String pool (strpool.go), per capacity class: bump allocations, pool
	// hits, frees, and blocks parked now across live regions. StrBig counts
	// allocations above the ceiling; StrFreeBytes sums every freed block's
	// aligned size.
	StrNew, StrReuse, StrFreed [strClasses]uint64
	StrParked                  [strClasses]int64
	StrBig, StrFreeBytes       uint64

	// The histograms, kept only while the runtime is metered: allocation
	// data sizes, region lifetimes in cycles, and the cycles of each write
	// barrier and each sweep slice. Each is a metrics.Observe tally over
	// the bounds above, with its total in the matching *Sum.
	AllocSize        [len(allocSizeBounds) + 1]uint64
	RegionLifetime   [len(regionLifetimeBounds) + 1]uint64
	BarrierCycles    [len(barrierCycleBounds) + 1]uint64
	SweepSliceCycles [len(sweepSliceCycleBounds) + 1]uint64

	AllocSizeSum, RegionLifetimeSum, BarrierCyclesSum, SweepSliceCyclesSum uint64
}

// SiteCount is one allocation site's exact count since the runtime was
// first metered: the objects allocated there and their data bytes.
type SiteCount struct {
	Site           string
	Objects, Bytes uint64
}

// Spine is a copy of every count a runtime's pulled series read.
type Spine struct {
	Counters stats.Counters
	Tally    Tally
	// Sites is the runtime's live site table once it has been metered, nil
	// before. It is not a copy: an owner that hands the spine to another
	// goroutine copies it first (the shard engine does).
	Sites []SiteCount
}

// Spine returns a copy of the runtime's counts, Sites aside. It does not
// allocate, so an owner can publish it after every unit of work (the shard
// engine does).
func (rt *Runtime) Spine() Spine {
	sp := Spine{Counters: *rt.c, Tally: *rt.t}
	if st := rt.sites; st != nil {
		sp.Sites = st.sites
	}
	return sp
}

// Emit reports sp as the runtime's series: the regions_core_*,
// regions_sweep_* and regions_str_* families, and every site allocated at
// as regions_alloc_site_*_total.
func (sp *Spine) Emit(s *metrics.Sink) {
	c, t := &sp.Counters, &sp.Tally
	s.Counter("regions_core_allocs_total", c.Allocs)
	s.Counter("regions_core_alloc_bytes_total", c.BytesRequested)
	s.Counter("regions_core_regions_created_total", c.RegionsCreated)
	s.Counter("regions_core_regions_deleted_total", c.RegionsDeleted)
	s.Counter("regions_core_region_delete_fails_total", c.DeleteFails)
	s.Gauge("regions_core_live_regions", c.LiveRegions)
	s.Counter("regions_core_barrier_global_total", c.Barriers.Global)
	s.Counter("regions_core_barrier_region_total", c.Barriers.Region)
	s.Counter("regions_core_barrier_sameregion_total", c.Barriers.SameRegion)
	s.Counter("regions_core_barrier_fast_total", t.BarrierFast)
	s.Counter("regions_core_stack_scans_total", c.FramesScanned)
	s.Counter("regions_core_stack_unscans_total", c.FramesUnscanned)
	s.Counter("regions_core_rc_incs_total", t.RCIncs)
	s.Counter("regions_core_rc_decs_total", t.RCDecs)
	s.Counter("regions_core_pageindex_lookups_total", t.LRMisses)
	s.Counter("regions_core_pageindex_hits_total", t.PageIndexHits)
	s.Counter("regions_core_lrcache_hits_total", t.LRHits)
	s.Counter("regions_core_lrcache_misses_total", t.LRMisses)
	s.Counter("regions_core_pages_acquired_total", t.PagesAcquired)
	s.Counter("regions_core_pages_released_total", t.PagesReleased)
	s.Gauge("regions_sweep_debt_pages", int64(t.SweepDebt))
	s.Counter("regions_sweep_slices_total", t.SweepSlices)
	s.Counter("regions_swept_pages_total", t.SweptPages)
	var strNew, strReuse uint64
	for i := 0; i < strClasses; i++ {
		strNew += t.StrNew[i]
		strReuse += t.StrReuse[i]
		s.Gauge(`regions_str_pool_blocks{class="`+strconv.Itoa(strClassSize(i))+`"}`, t.StrParked[i])
	}
	s.Counter("regions_str_new_total", strNew)
	s.Counter("regions_str_reuse_total", strReuse)
	s.Counter("regions_str_big_total", t.StrBig)
	s.Counter("regions_str_free_total", c.FreeCalls)
	s.Counter("regions_str_free_bytes_total", t.StrFreeBytes)
	s.Histogram("regions_core_alloc_size_bytes", allocSizeBounds[:], t.AllocSize[:], t.AllocSizeSum)
	s.Histogram("regions_core_region_lifetime_cycles", regionLifetimeBounds[:], t.RegionLifetime[:], t.RegionLifetimeSum)
	s.Histogram("regions_core_barrier_cycles", barrierCycleBounds[:], t.BarrierCycles[:], t.BarrierCyclesSum)
	s.Histogram("regions_sweep_slice_cycles", sweepSliceCycleBounds[:], t.SweepSliceCycles[:], t.SweepSliceCyclesSum)
	for _, st := range sp.Sites {
		if st.Objects > 0 {
			s.Site(st.Site, st.Objects, st.Bytes)
		}
	}
}

// runtimeMetrics links a metered runtime to its registry, and to the
// source SetMetrics registered there (nil under Meter).
type runtimeMetrics struct {
	reg     *metrics.Registry
	unmeter func()
}

// siteTable counts every allocation a metered runtime makes, by site:
// strSiteKeys' string sites first, in their order, then one site per
// registered cleanup in id order. The runtime builds it at its first Meter
// and keeps it across later ones, so its counts accumulate like the
// histograms'. It is allocated apart from the runtime, like the Tally, so
// a source can hold it without holding the heap.
type siteTable struct{ sites []SiteCount }

// newSiteTable returns a zeroed table for the string sites and cleanups.
func newSiteTable(cleanups []cleanupEntry) *siteTable {
	st := &siteTable{sites: make([]SiteCount, 0, len(strSiteKeys)+len(cleanups))}
	for _, k := range strSiteKeys {
		st.sites = append(st.sites, SiteCount{Site: k})
	}
	for _, e := range cleanups {
		st.add(e.name)
	}
	return st
}

// add appends the site of the next cleanup registered, called name.
func (st *siteTable) add(name string) { st.sites = append(st.sites, SiteCount{Site: name}) }

// count adds one allocation of data bytes to site i.
func (st *siteTable) count(i, data int) {
	s := &st.sites[i]
	s.Objects++
	s.Bytes += uint64(data)
}

// strSite is the site of a string allocation in class idx. A negative idx,
// a request above the pool's ceiling or of zero bytes, is str:big, as the
// Tally's StrBig counts it.
func strSite(idx int) int {
	if idx < 0 {
		return strClasses
	}
	return idx
}

// cleanupSite is the site of an object whose cleanup is cln.
func cleanupSite(cln CleanupID) int { return len(strSiteKeys) + int(cln) - 1 }

// SetMetrics attaches a lone runtime to reg (nil detaches): it meters the
// runtime (see Meter), and a source reads its counters, gauges, histograms
// and site counts at every Snapshot. The source reads the runtime's counts
// directly, so snapshot the registry only from the goroutine that owns the
// runtime; an owner that shares the runtime's counts with other goroutines
// uses Meter and publishes Spine copies itself. The source holds the
// counts, not the runtime, so the registry never keeps the heap alive.
// Detaching removes the source, so the runtime's series, histograms and
// sites included, leave the next snapshot. See docs/OBSERVABILITY.md for
// the series.
func (rt *Runtime) SetMetrics(reg *metrics.Registry) {
	rt.Meter(reg)
	if reg != nil {
		c, t, st := rt.c, rt.t, rt.sites
		rt.met.unmeter = reg.AddSource(func(s *metrics.Sink) {
			sp := Spine{Counters: *c, Tally: *t, Sites: st.sites}
			sp.Emit(s)
		})
	}
}

// Meter makes the runtime metered on reg, replacing any earlier
// attachment; nil unmeters it. A metered runtime keeps its histograms in
// its Tally and counts every allocation at its site. Both count from the
// first Meter on and accumulate across later calls, so a runtime that is
// unmetered and metered again reports every allocation it made while
// metered. Meter registers no source: the caller reports the runtime's
// series from Spine copies, as the shard engine does.
func (rt *Runtime) Meter(reg *metrics.Registry) {
	if m := rt.met; m != nil && m.unmeter != nil {
		m.unmeter()
	}
	rt.met = nil
	if reg != nil {
		if rt.sites == nil {
			rt.sites = newSiteTable(rt.cleanups)
		}
		rt.met = &runtimeMetrics{reg: reg}
	}
}

// Metrics returns the attached registry, or nil.
func (rt *Runtime) Metrics() *metrics.Registry {
	if rt.met == nil {
		return nil
	}
	return rt.met.reg
}
