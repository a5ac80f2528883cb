package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	var n uint64
	var level int64
	r.AddSource(func(s *Sink) {
		s.Counter("c_total", n)
		s.Gauge("g", level)
	})
	// A source is read at every snapshot, so each one sees the current count.
	for _, want := range []struct {
		n     uint64
		level int64
	}{{5, 7}, {6, -3}} {
		n, level = want.n, want.level
		snap := r.Snapshot()
		if got, ok := snap.Counter("c_total"); !ok || got != want.n {
			t.Errorf("counter = %d (present %v), want %d", got, ok, want.n)
		}
		if got, ok := snap.Gauge("g"); !ok || got != want.level {
			t.Errorf("gauge = %d (present %v), want %d", got, ok, want.level)
		}
	}

	h := r.Histogram("h", []uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1+10+11+100+101+5000 {
		t.Errorf("histogram count/sum = %d/%d", h.Count(), h.Sum())
	}
	// Bounds are inclusive: 10 lands in the first bucket, 101 overflows.
	want := []uint64{2, 2, 2}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want[i])
		}
	}
	if r.Histogram("h", nil) != h {
		t.Error("Histogram is not get-or-create")
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-ascending bounds")
		}
	}()
	NewRegistry().Histogram("bad", []uint64{10, 10})
}

func TestSnapshotLookupAndDiff(t *testing.T) {
	r := NewRegistry()
	a, live := uint64(10), int64(2)
	r.AddSource(func(s *Sink) {
		s.Counter("a_total", a)
		s.Counter("b_total{x=\"1\"}", 3)
		s.Counter("b_total{x=\"2\"}", 4)
		s.Gauge("live", live)
	})
	r.Histogram("sizes", []uint64{16, 64}).Observe(20)
	r.SetSiteSampling(1)
	for i := 0; i < 3; i++ {
		r.SampleAlloc("x", 8)
	}
	r.SampleAlloc("y", 100)

	s1 := r.Snapshot()
	if s1.SchemaVersion != SnapshotSchemaVersion {
		t.Errorf("schema_version = %d, want %d", s1.SchemaVersion, SnapshotSchemaVersion)
	}
	if v, ok := s1.Counter("a_total"); !ok || v != 10 {
		t.Errorf("Counter(a_total) = %d,%v", v, ok)
	}
	if v, ok := s1.Gauge("live"); !ok || v != 2 {
		t.Errorf("Gauge(live) = %d,%v", v, ok)
	}
	if got := s1.CounterSum("b_total"); got != 7 {
		t.Errorf("CounterSum(b_total) = %d, want 7", got)
	}
	if _, ok := s1.Counter("missing"); ok {
		t.Error("Counter(missing) found")
	}
	if h, ok := s1.Histogram("sizes"); !ok || h.Count != 1 || h.Sum != 20 {
		t.Errorf("Histogram(sizes) = %+v,%v", h, ok)
	}
	if _, ok := s1.Histogram("missing"); ok {
		t.Error("Histogram(missing) found")
	}

	a += 5
	live = 9
	r.Histogram("sizes", nil).Observe(100)
	r.SampleAlloc("x", 8)
	r.SampleAlloc("x", 8)
	r.SampleAlloc("z", 4)
	d := r.Snapshot().Sub(s1)
	// The site census is cumulative: the diff holds the interval's samples,
	// sorted by bytes.
	wantSites := []SiteSample{{"x", 2, 16}, {"z", 1, 4}, {"y", 0, 0}}
	if !reflect.DeepEqual(d.Sites, wantSites) {
		t.Errorf("diffed sites = %+v, want %+v", d.Sites, wantSites)
	}
	if v, _ := d.Counter("a_total"); v != 5 {
		t.Errorf("diffed a_total = %d, want 5", v)
	}
	if v, _ := d.Gauge("live"); v != 9 {
		t.Errorf("diffed gauge = %d, want instantaneous 9", v)
	}
	if h := d.Histograms[0]; h.Count != 1 || h.Sum != 100 {
		t.Errorf("diffed histogram count/sum = %d/%d, want 1/100", h.Count, h.Sum)
	}
}

// TestSourcesSumAndRemove: series several sources report under one name
// read as their sum, and a removed source stops contributing.
func TestSourcesSumAndRemove(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) { s.Counter("n_total", 1) })
	src := func(n uint64) Source {
		return func(s *Sink) {
			s.Counter("n_total", n)
			s.Gauge("depth", int64(n))
		}
	}
	r.AddSource(src(10))
	remove := r.AddSource(src(100))
	snap := r.Snapshot()
	if v, _ := snap.Counter("n_total"); v != 111 {
		t.Errorf("n_total = %d, want 111", v)
	}
	if v, _ := snap.Gauge("depth"); v != 110 {
		t.Errorf("depth = %d, want 110", v)
	}
	remove()
	snap = r.Snapshot()
	if v, _ := snap.Counter("n_total"); v != 11 {
		t.Errorf("n_total after remove = %d, want 11", v)
	}
	if v, _ := snap.Gauge("depth"); v != 10 {
		t.Errorf("depth after remove = %d, want 10", v)
	}
}

// TestHistogramCellsSumAndRetire: cells of one name read as one histogram,
// summed with the registry's own histogram of that name, exactly as a
// single shared histogram fed the same observations; a retired cell's
// observations stay in the sum, and a cell keeps the bounds its name
// already has.
func TestHistogramCellsSumAndRetire(t *testing.T) {
	bounds := []uint64{10, 100}
	obs := [][]uint64{{1, 10, 11}, {100, 101}, {5000, 7}}
	shared := NewRegistry()
	for _, vs := range obs {
		for _, v := range vs {
			shared.Histogram("h", bounds).Observe(v)
		}
	}
	r := NewRegistry()
	own := r.Histogram("h", bounds)
	cells := []*Histogram{own, r.HistogramCell("h", bounds), r.HistogramCell("h", []uint64{1, 2, 3})}
	for i, vs := range obs {
		for _, v := range vs {
			cells[i].Observe(v)
		}
	}
	if got := cells[2].Bounds(); !slices.Equal(got, bounds) {
		t.Errorf("a cell under an existing name has bounds %v, want %v", got, bounds)
	}
	want := shared.Snapshot()
	expo := func(s *Snapshot) string {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got := r.Snapshot(); expo(got) != expo(want) {
		t.Errorf("cells expose\n%s\nwant the shared histogram's\n%s", expo(got), expo(want))
	}
	r.RetireCell(cells[1])
	r.RetireCell(cells[1]) // no longer a cell: nothing happens
	r.RetireCell(own)      // not a cell
	if got := r.Snapshot(); expo(got) != expo(want) {
		t.Errorf("after retiring a cell\n%s\nwant\n%s", expo(got), expo(want))
	}
	cells[1].Observe(1) // a retired cell is not read again
	if h, _ := r.Snapshot().Histogram("h"); h.Count != 7 {
		t.Errorf("count %d after an observation into a retired cell, want 7", h.Count)
	}
}

func TestSiteSampling(t *testing.T) {
	r := NewRegistry()
	// Disabled sampler records nothing.
	r.SampleAlloc("quiet", 8)
	if got := len(r.Snapshot().Sites); got != 0 {
		t.Fatalf("disabled sampler recorded %d sites", got)
	}
	r.SetSiteSampling(4)
	for i := 0; i < 64; i++ {
		r.SampleAlloc("hot", 32)
	}
	sites := r.Snapshot().Sites
	if len(sites) != 1 || sites[0].Site != "hot" {
		t.Fatalf("sites = %+v", sites)
	}
	// Every 4th of 64 calls recorded, scaled by 4: the estimate matches the
	// full stream exactly for a uniform one.
	if sites[0].Objects != 64 || sites[0].Bytes != 64*32 {
		t.Errorf("sampled estimate = %d objects / %d bytes, want 64 / %d",
			sites[0].Objects, sites[0].Bytes, 64*32)
	}
}

// TestWritePrometheusGolden locks the exposition output byte for byte;
// regenerate with `go test ./internal/metrics -run Golden -update`.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) {
		s.Counter("regions_demo_allocs_total", 1234)
		s.Counter(`regions_demo_tasks_total{shard="0"}`, 7)
		s.Counter(`regions_demo_tasks_total{shard="1"}`, 8)
		s.Gauge("regions_demo_live_regions", 3)
	})
	h := r.Histogram("regions_demo_alloc_size_bytes", []uint64{16, 256})
	for _, v := range []uint64{8, 16, 200, 5000} {
		h.Observe(v)
	}
	r.SetSiteSampling(1)
	r.SampleAlloc(`site "with" quotes\`, 48)
	r.SampleAlloc("plain", 16)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) { s.Counter("a_total", 2) })
	r.Histogram("h", []uint64{10}).Observe(3)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if back.SchemaVersion != SnapshotSchemaVersion {
		t.Errorf("round-tripped schema_version = %d", back.SchemaVersion)
	}
	if v, ok := back.Counter("a_total"); !ok || v != 2 {
		t.Errorf("round-tripped counter = %d,%v", v, ok)
	}
}

func TestHandlerServesScrape(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) { s.Counter("up_total", 1) })
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct == "" {
		t.Error("no Content-Type header")
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("up_total 1")) {
		t.Errorf("scrape body missing counter:\n%s", rec.Body.String())
	}
}

// TestConcurrentUpdates exercises the lock-free update paths under the race
// detector: many goroutines hammering a shared histogram, their own
// histogram cells and a count a source reads, while another snapshots and
// renders.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	r.SetSiteSampling(2)
	var n atomic.Uint64
	r.AddSource(func(s *Sink) { s.Counter("shared_total", n.Load()) })
	var writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			h := r.Histogram("shared_hist", []uint64{8, 64})
			cell := r.HistogramCell("cell_hist", []uint64{8, 64})
			for j := 0; j < 5000; j++ {
				n.Add(1)
				h.Observe(uint64(j % 100))
				cell.Observe(uint64(j % 100))
				r.SampleAlloc("site", 16)
			}
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
				if err := WritePrometheus(bytes.NewBuffer(nil), r.Snapshot()); err != nil {
					readerDone <- err
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}

	snap := r.Snapshot()
	if got, _ := snap.Counter("shared_total"); got != 4*5000 {
		t.Errorf("shared_total = %d, want %d", got, 4*5000)
	}
	if h, _ := snap.Histogram("cell_hist"); h == nil || h.Count != 4*5000 {
		t.Errorf("cell_hist = %+v, want %d observations", h, 4*5000)
	}
}
