// Package metrics is the live telemetry layer of the region runtime: a
// registry of counters, gauges, and fixed-bucket histograms over every
// layer of the stack (internal/core, internal/mem, internal/gc,
// internal/shard, internal/serve), plus a sampled allocation-site profile.
//
// Every series is pulled. Each layer already keeps plain counts of what it
// does — stats.Counters, the runtime's Tally, the simulated OS's
// OSCounts, the engine's per-shard Stats — and registers a Source that
// reads them when Snapshot runs, so no event is counted twice. A histogram
// is such a count too: a plain tally of buckets and a sum (Observe),
// written only by the goroutine that owns what it measures and reported
// by its owner's source (Sink.Histogram). Only the allocation-site sampler
// is fed by the runtime as it allocates. Either way the work is host-side
// bookkeeping outside the simulated machine model, so a metered run
// reports the same stats.Counters as a bare one.
//
// The aggregate counters of internal/stats answer the paper's questions
// after a run ends; this package answers "what is the runtime doing right
// now": Snapshot() is cheap and diffable into per-interval rates,
// WritePrometheus emits the text exposition format, WriteJSON a
// schema-versioned JSON document (embedded in regionbench reports), and
// HeapProfile turns the verifier's page walk into a per-region heap report.
// docs/OBSERVABILITY.md documents the semantics; cmd/regionstat drives
// everything against the benchmark applications.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Observe counts v in a histogram's tally over bounds, which are inclusive
// upper bounds in ascending order: buckets holds one count per bound and
// the overflow count last, and v lands in the first bucket whose bound it
// does not exceed. sum accumulates v. The writes are plain, so only the
// tally's owner observes into it; a source reads it, or a copy its owner
// published, on the snapshotting goroutine.
func Observe(bounds, buckets []uint64, sum *uint64, v uint64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	buckets[i]++
	*sum += v
}

// siteEntry accumulates the sampled allocation-site profile. Values are
// scaled up by the sampling interval at record time, so they estimate the
// full population.
type siteEntry struct {
	objects uint64
	bytes   uint64
}

// Sink receives the series the registry's sources report during one
// Snapshot. Values reported under one name add up across sources: N shard
// runtimes reporting regions_core_allocs_total read as their total, and so
// do a gauge and a histogram they share.
type Sink struct {
	counters map[string]uint64
	gauges   map[string]int64
	hists    map[string]*HistogramValue
}

// Counter reports v for the counter called name.
func (s *Sink) Counter(name string, v uint64) { s.counters[name] += v }

// Gauge reports v for the gauge called name.
func (s *Sink) Gauge(name string, v int64) { s.gauges[name] += v }

// Histogram reports the histogram called name: buckets is the tally
// Observe kept over bounds, and sum the total of the values it counted.
// Histograms of one name add up bucket by bucket, so every source that
// reports a name must use the same bounds, which must ascend.
func (s *Sink) Histogram(name string, bounds, buckets []uint64, sum uint64) {
	h := s.hists[name]
	if h == nil {
		h = &HistogramValue{Name: name, Buckets: make([]BucketValue, len(bounds)+1)}
		for i, b := range bounds {
			if i > 0 && b <= bounds[i-1] {
				panic("metrics: histogram bounds must be ascending")
			}
			h.Buckets[i].UpperBound = b
		}
		s.hists[name] = h
	}
	if len(buckets) != len(h.Buckets) || len(bounds)+1 != len(h.Buckets) {
		panic("metrics: histogram " + name + " reported over different bounds")
	}
	for i, n := range buckets {
		h.Buckets[i].Count += n
		h.Count += n
	}
	h.Sum += sum
}

// A Source reports series read from counts its owner keeps anyway. The
// registry calls it at every Snapshot, on the snapshotting goroutine, so a
// source either reads state that goroutine may touch or copies taken under
// its owner's lock.
type Source func(*Sink)

// Registry is a named collection of metrics: the sources that report its
// series (AddSource) and the allocation-site sampler. Names follow
// Prometheus conventions and may carry a label suffix
// (`regions_shard_tasks_total{shard="0"}`); series sharing a base name are
// grouped under one # TYPE line by WritePrometheus.
type Registry struct {
	mu         sync.Mutex
	sources    map[int]Source
	nextSource int
	siteEvery  atomic.Int64
	siteTick   atomic.Uint64
	siteMu     sync.Mutex
	sites      map[string]*siteEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		sources: map[int]Source{},
		sites:   map[string]*siteEntry{},
	}
}

// AddSource registers src, which every later Snapshot calls, and returns
// the function that removes it again.
func (r *Registry) AddSource(src Source) (remove func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSource++
	id := r.nextSource
	r.sources[id] = src
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(r.sources, id)
	}
}

// SetSiteSampling enables the sampled allocation-site profile: every Nth
// SampleAlloc call is recorded (scaled by N, so the profile estimates the
// full allocation stream). 0 disables sampling, the default — a disabled
// sampler costs one atomic load per allocation on a metered runtime and
// nothing on a bare one.
func (r *Registry) SetSiteSampling(every int) {
	if every < 0 {
		every = 0
	}
	r.siteEvery.Store(int64(every))
}

// SampleAlloc offers one allocation (site label, data bytes) to the site
// sampler. Called by the runtime's allocation hooks; cheap when sampling is
// disabled, and off the fast path (one short critical section) once per
// sampling interval otherwise.
func (r *Registry) SampleAlloc(site string, size uint64) {
	every := uint64(r.siteEvery.Load())
	if every == 0 {
		return
	}
	if r.siteTick.Add(1)%every != 0 {
		return
	}
	r.siteMu.Lock()
	e, ok := r.sites[site]
	if !ok {
		e = &siteEntry{}
		r.sites[site] = e
	}
	e.objects += every
	e.bytes += size * every
	r.siteMu.Unlock()
}

// snapshotSites copies the sampled site profile, sorted by estimated bytes
// descending (ties by name).
func (r *Registry) snapshotSites() []SiteSample {
	r.siteMu.Lock()
	out := make([]SiteSample, 0, len(r.sites))
	for name, e := range r.sites {
		out = append(out, SiteSample{Site: name, Objects: e.objects, Bytes: e.bytes})
	}
	r.siteMu.Unlock()
	sortSites(out)
	return out
}

// sortSites orders a site profile by estimated bytes, descending, ties by
// name.
func sortSites(sites []SiteSample) {
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Bytes != sites[j].Bytes {
			return sites[i].Bytes > sites[j].Bytes
		}
		return sites[i].Site < sites[j].Site
	})
}
