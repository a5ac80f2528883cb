// Package metrics is the live telemetry layer of the region runtime: a
// registry of counters, gauges, and fixed-bucket histograms over every
// layer of the stack (internal/core, internal/mem, internal/gc,
// internal/shard, internal/serve).
//
// Every series is pulled. Each layer already keeps plain counts of what it
// does — stats.Counters, the runtime's Tally and its per-site allocation
// counts, the simulated OS's OSCounts, the engine's per-shard Stats — and
// registers a Source that reads them when Snapshot runs, so no event is
// counted twice. A histogram is such a count too: a plain tally of buckets
// and a sum (Observe), written only by the goroutine that owns what it
// measures and reported by its owner's source (Sink.Histogram). The work
// is host-side bookkeeping outside the simulated machine model, so a
// metered run reports the same stats.Counters as a bare one.
//
// The aggregate counters of internal/stats answer the paper's questions
// after a run ends; this package answers "what is the runtime doing right
// now": Snapshot() is cheap and diffable into per-interval rates,
// WritePrometheus emits the text exposition format, WriteJSON a
// schema-versioned JSON document (embedded in regionbench reports), and
// HeapReport is the schema of the per-region heap report the verifier's
// page walk produces (core.Runtime.HeapReport).
// docs/OBSERVABILITY.md documents the semantics; cmd/regionstat drives
// everything against the benchmark applications.
package metrics

import (
	"strings"
	"sync"
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

// Site reports one allocation site's exact counts, objects allocated there
// and their data bytes, as the counters
// regions_alloc_site_objects_total{site="…"} and
// regions_alloc_site_bytes_total{site="…"}, with site escaped as a label
// value. Like any counter, a site several sources report reads as their sum.
func (s *Sink) Site(site string, objects, bytes uint64) {
	label := `{site="` + labelEscaper.Replace(site) + `"}`
	s.Counter("regions_alloc_site_objects_total"+label, objects)
	s.Counter("regions_alloc_site_bytes_total"+label, bytes)
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

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
// series (AddSource). Names follow Prometheus conventions and may carry a
// label suffix (`regions_shard_tasks_total{shard="0"}`); series sharing a
// base name are grouped under one # TYPE line by WritePrometheus.
type Registry struct {
	mu         sync.Mutex
	sources    map[int]Source
	nextSource int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: map[int]Source{}}
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
