package metrics

import "sort"

// SnapshotSchemaVersion is the schema_version stamped on every Snapshot
// (and therefore on WriteJSON output and embedded regionbench reports).
// Bump it whenever a field changes meaning or shape.
const SnapshotSchemaVersion = 1

// CounterValue is one counter at snapshot time.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge at snapshot time.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketValue is one histogram bucket: the count of observations at or
// under UpperBound that exceeded the previous bound. UpperBound 0 on the
// last bucket marks the overflow (+Inf) bucket.
type BucketValue struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramValue is one histogram at snapshot time. Buckets hold per-bucket
// (not cumulative) counts; the Prometheus writer accumulates them into the
// exposition format's cumulative `le` series.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Buckets []BucketValue `json:"buckets"`
}

// Snapshot is one consistent-enough view of a registry: every source is
// read once, and series are name-sorted so two snapshots diff line by line.
// A source reports its counts as of one instant (the shard engine's, for
// example, as of each shard's last completed task); skew between sources
// is bounded by the work in flight while they are read.
type Snapshot struct {
	SchemaVersion int              `json:"schema_version"`
	Counters      []CounterValue   `json:"counters"`
	Gauges        []GaugeValue     `json:"gauges"`
	Histograms    []HistogramValue `json:"histograms"`
}

// Snapshot captures the registry's current values: it calls every source,
// summing the series they report under one name.
func (r *Registry) Snapshot() *Snapshot {
	sink := Sink{counters: map[string]uint64{}, gauges: map[string]int64{},
		hists: map[string]*HistogramValue{}}
	r.mu.Lock()
	sources := make([]Source, 0, len(r.sources))
	for _, src := range r.sources {
		sources = append(sources, src)
	}
	r.mu.Unlock()
	for _, src := range sources {
		src(&sink)
	}

	counters := make([]CounterValue, 0, len(sink.counters))
	for name, v := range sink.counters {
		counters = append(counters, CounterValue{Name: name, Value: v})
	}
	gauges := make([]GaugeValue, 0, len(sink.gauges))
	for name, v := range sink.gauges {
		gauges = append(gauges, GaugeValue{Name: name, Value: v})
	}
	hists := make([]HistogramValue, 0, len(sink.hists))
	for _, h := range sink.hists {
		hists = append(hists, *h)
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Counters:      counters,
		Gauges:        gauges,
		Histograms:    hists,
	}
}

// Counter returns the named counter's value and whether it exists.
func (s *Snapshot) Counter(name string) (uint64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// Gauge returns the named gauge's value and whether it exists.
func (s *Snapshot) Gauge(name string) (int64, bool) {
	i := sort.Search(len(s.Gauges), func(i int) bool { return s.Gauges[i].Name >= name })
	if i < len(s.Gauges) && s.Gauges[i].Name == name {
		return s.Gauges[i].Value, true
	}
	return 0, false
}

// Histogram returns the named histogram's value and whether it exists.
func (s *Snapshot) Histogram(name string) (*HistogramValue, bool) {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return &s.Histograms[i], true
	}
	return nil, false
}

// CounterSum sums every counter whose name starts with prefix — the way to
// aggregate labeled series (`regions_shard_tasks_total{...}`) without
// parsing labels.
func (s *Snapshot) CounterSum(prefix string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if len(c.Name) >= len(prefix) && c.Name[:len(prefix)] == prefix {
			sum += c.Value
		}
	}
	return sum
}
