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
	"strings"
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

	bounds := []uint64{10, 100}
	buckets := make([]uint64, len(bounds)+1)
	var sum uint64
	for _, v := range []uint64{1, 10, 11, 100, 101, 5000} {
		Observe(bounds, buckets, &sum, v)
	}
	// Bounds are inclusive: 10 lands in the first bucket, 101 overflows.
	if want := []uint64{2, 2, 2}; !slices.Equal(buckets, want) || sum != 1+10+11+100+101+5000 {
		t.Errorf("tally = %v sum %d, want %v sum %d", buckets, sum, want, 1+10+11+100+101+5000)
	}
	r.AddSource(func(s *Sink) { s.Histogram("h", bounds, buckets, sum) })
	h, ok := r.Snapshot().Histogram("h")
	want := []BucketValue{{10, 2}, {100, 2}, {0, 2}}
	if !ok || h.Count != 6 || h.Sum != sum || !slices.Equal(h.Buckets, want) {
		t.Errorf("Histogram(h) = %+v,%v, want 6 observations summing to %d in %v", h, ok, sum, want)
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) { s.Histogram("bad", []uint64{10, 10}, make([]uint64, 3), 0) })
	if !panics(func() { r.Snapshot() }) {
		t.Fatal("no panic for non-ascending bounds")
	}
}

func TestSnapshotLookupAndDiff(t *testing.T) {
	r := NewRegistry()
	a, live := uint64(10), int64(2)
	sites := map[string][2]uint64{"x": {3, 24}, "y": {1, 100}}
	r.AddSource(func(s *Sink) {
		s.Counter("a_total", a)
		s.Counter("b_total{x=\"1\"}", 3)
		s.Counter("b_total{x=\"2\"}", 4)
		s.Gauge("live", live)
		for site, n := range sites {
			s.Site(site, n[0], n[1])
		}
	})
	sizeBounds, sizes, sizeSum := []uint64{16, 64}, make([]uint64, 3), uint64(0)
	r.AddSource(func(s *Sink) { s.Histogram("sizes", sizeBounds, sizes, sizeSum) })
	Observe(sizeBounds, sizes, &sizeSum, 20)

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
	Observe(sizeBounds, sizes, &sizeSum, 100)
	sites["x"] = [2]uint64{5, 40}
	sites["z"] = [2]uint64{1, 4}
	s2 := r.Snapshot()
	// Two snapshots diff counter by counter. Site counts are counters: the
	// difference holds the interval's allocations, and a site new in the
	// interval its whole count.
	delta := func(name string) uint64 {
		v, _ := s2.Counter(name)
		old, _ := s1.Counter(name)
		return v - old
	}
	var gotSites []CounterValue
	for _, c := range s2.Counters {
		if strings.HasPrefix(c.Name, "regions_alloc_site_") {
			gotSites = append(gotSites, CounterValue{c.Name, delta(c.Name)})
		}
	}
	wantSites := []CounterValue{
		{`regions_alloc_site_bytes_total{site="x"}`, 16},
		{`regions_alloc_site_bytes_total{site="y"}`, 0},
		{`regions_alloc_site_bytes_total{site="z"}`, 4},
		{`regions_alloc_site_objects_total{site="x"}`, 2},
		{`regions_alloc_site_objects_total{site="y"}`, 0},
		{`regions_alloc_site_objects_total{site="z"}`, 1},
	}
	if !reflect.DeepEqual(gotSites, wantSites) {
		t.Errorf("diffed sites = %+v, want %+v", gotSites, wantSites)
	}
	if v := delta("a_total"); v != 5 {
		t.Errorf("diffed a_total = %d, want 5", v)
	}
	if v, _ := s2.Gauge("live"); v != 9 {
		t.Errorf("gauge = %d, want instantaneous 9", v)
	}
	if h1, h2 := s1.Histograms[0], s2.Histograms[0]; h2.Count-h1.Count != 1 || h2.Sum-h1.Sum != 100 {
		t.Errorf("diffed histogram count/sum = %d/%d, want 1/100", h2.Count-h1.Count, h2.Sum-h1.Sum)
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

// TestHistogramsSumAcrossSources: histograms several sources report under
// one name read as one histogram fed every observation, a removed source's
// observations leave with it, and a source that reports a name over other
// bounds panics.
func TestHistogramsSumAcrossSources(t *testing.T) {
	bounds := []uint64{10, 100}
	obs := [][]uint64{{1, 10, 11}, {100, 101}, {5000, 7}}
	type tally struct {
		buckets [3]uint64
		sum     uint64
	}
	var all tally
	shared := NewRegistry()
	shared.AddSource(func(s *Sink) { s.Histogram("h", bounds, all.buckets[:], all.sum) })
	r := NewRegistry()
	own := make([]tally, len(obs))
	var remove []func()
	for i, vs := range obs {
		for _, v := range vs {
			Observe(bounds, all.buckets[:], &all.sum, v)
			Observe(bounds, own[i].buckets[:], &own[i].sum, v)
		}
		tl := &own[i]
		remove = append(remove, r.AddSource(func(s *Sink) { s.Histogram("h", bounds, tl.buckets[:], tl.sum) }))
	}
	expo := func(s *Snapshot) string {
		var buf bytes.Buffer
		if err := WritePrometheus(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got, want := expo(r.Snapshot()), expo(shared.Snapshot()); got != want {
		t.Errorf("three sources expose\n%s\nwant the one histogram's\n%s", got, want)
	}
	remove[1]()
	if h, _ := r.Snapshot().Histogram("h"); h.Count != 5 || h.Sum != 1+10+11+5000+7 {
		t.Errorf("after removing a source: %d observations summing to %d, want 5 summing to %d",
			h.Count, h.Sum, 1+10+11+5000+7)
	}
	r.AddSource(func(s *Sink) { s.Histogram("h", []uint64{10}, make([]uint64, 2), 0) })
	if !panics(func() { r.Snapshot() }) {
		t.Error("no panic for a histogram reported over different bounds")
	}
}

// TestSinkSumsSiteAcrossSources: one site several sources report reads as
// their sum, a removed source's counts leave with it, and a site name is
// escaped as a label value.
func TestSinkSumsSiteAcrossSources(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) { s.Site("hot", 64, 64*32) })
	remove := r.AddSource(func(s *Sink) {
		s.Site("hot", 3, 96)
		s.Site("cold", 1, 8)
	})
	site := func(snap *Snapshot, name string) (objects, bytes uint64) {
		objects, _ = snap.Counter(`regions_alloc_site_objects_total{site="` + name + `"}`)
		bytes, _ = snap.Counter(`regions_alloc_site_bytes_total{site="` + name + `"}`)
		return objects, bytes
	}
	snap := r.Snapshot()
	if o, b := site(snap, "hot"); o != 67 || b != 64*32+96 {
		t.Errorf("hot site = %d objects / %d bytes, want 67 / %d", o, b, 64*32+96)
	}
	if o, b := site(snap, "cold"); o != 1 || b != 8 {
		t.Errorf("cold site = %d objects / %d bytes, want 1 / 8", o, b)
	}
	remove()
	snap = r.Snapshot()
	if o, b := site(snap, "hot"); o != 64 || b != 64*32 {
		t.Errorf("hot site after remove = %d objects / %d bytes, want 64 / %d", o, b, 64*32)
	}
	if got := snap.CounterSum("regions_alloc_site_objects_total"); got != 64 {
		t.Errorf("site objects after remove sum to %d, want 64", got)
	}
	r.AddSource(func(s *Sink) { s.Site("a\"b\\c\nd", 1, 4) })
	if o, _ := site(r.Snapshot(), `a\"b\\c\nd`); o != 1 {
		t.Errorf("escaped site reads %d objects, want 1", o)
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
	bounds, buckets, sum := []uint64{16, 256}, make([]uint64, 3), uint64(0)
	for _, v := range []uint64{8, 16, 200, 5000} {
		Observe(bounds, buckets, &sum, v)
	}
	r.AddSource(func(s *Sink) { s.Histogram("regions_demo_alloc_size_bytes", bounds, buckets, sum) })
	r.AddSource(func(s *Sink) {
		s.Site(`site "with" quotes\`, 1, 48)
		s.Site("plain", 1, 16)
	})

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

// TestWritePrometheusLabeledHistogram: a labeled histogram's buckets carry
// its labels before le, and its sum and count carry them too, so histograms
// that differ only in a label stay apart in the exposition.
func TestWritePrometheusLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) {
		s.Histogram(`x{phase="queue"}`, []uint64{10}, []uint64{1, 0}, 3)
		s.Histogram(`x{phase="work"}`, []uint64{10}, []uint64{1, 1}, 50)
	})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE x histogram
x_bucket{phase="queue",le="10"} 1
x_bucket{phase="queue",le="+Inf"} 1
x_sum{phase="queue"} 3
x_count{phase="queue"} 1
x_bucket{phase="work",le="10"} 1
x_bucket{phase="work",le="+Inf"} 2
x_sum{phase="work"} 50
x_count{phase="work"} 2
`
	if got := buf.String(); got != want {
		t.Errorf("labeled histograms render as\n%s\nwant\n%s", got, want)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.AddSource(func(s *Sink) {
		s.Counter("a_total", 2)
		s.Histogram("h", []uint64{10}, []uint64{1, 0}, 3)
	})
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

// TestConcurrentUpdates exercises the update paths under the race
// detector the way the shard engine uses them: goroutines keep histogram
// tallies and site counts of their own and publish copies under a lock,
// which a source reads, beside a count a source reads, while another
// goroutine snapshots and renders.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	bounds := []uint64{8, 64}
	type tally struct {
		buckets             [3]uint64
		sum                 uint64
		siteObjs, siteBytes uint64
	}
	var mu sync.Mutex
	published := make([]tally, 4)
	var n atomic.Uint64
	r.AddSource(func(s *Sink) {
		s.Counter("shared_total", n.Load())
		mu.Lock()
		defer mu.Unlock()
		for i := range published {
			s.Histogram("owned_hist", bounds, published[i].buckets[:], published[i].sum)
			s.Site("site", published[i].siteObjs, published[i].siteBytes)
		}
	})
	var writers sync.WaitGroup
	for i := range published {
		writers.Add(1)
		go func() {
			defer writers.Done()
			var own tally
			for j := 0; j < 5000; j++ {
				n.Add(1)
				Observe(bounds, own.buckets[:], &own.sum, uint64(j%100))
				own.siteObjs++
				own.siteBytes += 16
				if j%100 == 99 {
					mu.Lock()
					published[i] = own
					mu.Unlock()
				}
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
	if h, _ := snap.Histogram("owned_hist"); h == nil || h.Count != 4*5000 {
		t.Errorf("owned_hist = %+v, want %d observations", h, 4*5000)
	}
	if got, _ := snap.Counter(`regions_alloc_site_bytes_total{site="site"}`); got != 4*5000*16 {
		t.Errorf("site bytes = %d, want %d", got, 4*5000*16)
	}
}
