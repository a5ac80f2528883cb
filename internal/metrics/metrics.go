// Package metrics is the always-on telemetry layer of the region runtime: a
// registry of counters, gauges, and fixed-bucket histograms over every
// layer of the stack (internal/core, internal/mem, internal/gc,
// internal/shard, internal/serve).
//
// Counters and gauges are pulled. Each layer already keeps plain counts of
// what it does — stats.Counters, the runtime's Tally, the simulated OS's
// OSCounts, the engine's per-shard Stats — and registers a Source that reads
// them when Snapshot runs, so no event is counted twice. Histograms and the
// allocation-site sampler are pushed: they record one observation per
// event (an allocation's size, a region's lifetime, a barrier's cycles),
// which no plain count can reconstruct, behind the same nil-guarded hook
// pattern as internal/trace. A runtime pushes into histogram cells of its
// own (HistogramCell), which Snapshot sums by name, so shard runtimes on
// different goroutines never write the same cache line. Either way the work
// is host-side bookkeeping outside the simulated machine model, so a
// metered run reports the same stats.Counters as a bare one.
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

// Histogram is a fixed-bucket histogram of uint64 observations (byte sizes,
// simulated cycles). Bounds are inclusive upper bounds in ascending order;
// one implicit overflow bucket catches everything larger. Observe is
// lock-free: a linear scan over the (small) bound slice plus three atomic
// adds.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; last = overflow
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bounds returns the histogram's upper bounds (not a copy; do not mutate).
func (h *Histogram) Bounds() []uint64 { return h.bounds }

// add folds o's observations into h; both have the same bounds.
func (h *Histogram) add(o *Histogram) {
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.Count())
	h.sum.Add(o.Sum())
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
// does a gauge they share.
type Sink struct {
	counters map[string]uint64
	gauges   map[string]int64
}

// Counter reports v for the counter called name.
func (s *Sink) Counter(name string, v uint64) { s.counters[name] += v }

// Gauge reports v for the gauge called name.
func (s *Sink) Gauge(name string, v int64) { s.gauges[name] += v }

// A Source reports counters and gauges read from counts its owner keeps
// anyway. The registry calls it at every Snapshot, on the snapshotting
// goroutine, so a source either reads state that goroutine may touch or
// copies taken under its owner's lock.
type Source func(*Sink)

// Registry is a named collection of metrics. Counters and gauges come from
// sources (AddSource); Histogram is get-or-create and takes the registry
// lock, and the returned pointer is what hot paths hold on to, so
// observations never touch the lock or the name maps. HistogramCell gives
// one owner a histogram of its own under a shared name. Names follow Prometheus conventions and may carry a label suffix
// (`regions_shard_tasks_total{shard="0"}`); series sharing a base name are
// grouped under one # TYPE line by WritePrometheus.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
	// cells maps each live histogram cell to its name (see HistogramCell).
	cells map[*Histogram]string
	// bounds holds each histogram name's bounds, which its histogram and
	// its cells share.
	bounds     map[string][]uint64
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
		hists:   map[string]*Histogram{},
		cells:   map[*Histogram]string{},
		bounds:  map[string][]uint64{},
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

// Histogram returns the histogram named name, creating it with the given
// upper bounds if needed. Bounds must be ascending; they are copied. A name
// that already has a histogram or cells keeps its original bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogram(name, bounds)
}

// histogram is Histogram with r.mu held.
func (r *Registry) histogram(name string, bounds []uint64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = r.newHistogram(name, bounds)
		r.hists[name] = h
	}
	return h
}

// newHistogram returns an empty histogram over the bounds name already
// has, or, for a new name, over a copy of bounds, which must be ascending.
// r.mu is held.
func (r *Registry) newHistogram(name string, bounds []uint64) *Histogram {
	b, ok := r.bounds[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("metrics: histogram bounds must be ascending")
			}
		}
		b = append([]uint64(nil), bounds...)
		r.bounds[name] = b
	}
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// HistogramCell returns a new histogram that only its caller observes
// into, reported under name: Snapshot sums every cell of a name with the
// registry's own Histogram of that name, the way it sums same-name
// counters across sources. An owner on its own goroutine (a shard runtime)
// then never contends with another for the cell's cache lines. Bounds
// follow Histogram's rule: a name that already exists keeps its original
// bounds. RetireCell takes the cell out again.
func (r *Registry) HistogramCell(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.newHistogram(name, bounds)
	r.cells[h] = name
	return h
}

// RetireCell removes cell h and folds its observations into the registry's
// own histogram of h's name, so a detached owner's history stays in every
// later snapshot. Its owner must have stopped observing into h. Retiring a
// histogram that is not a live cell does nothing.
func (r *Registry) RetireCell(h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name, ok := r.cells[h]; ok {
		delete(r.cells, h)
		r.histogram(name, nil).add(h)
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Site < out[j].Site
	})
	return out
}
