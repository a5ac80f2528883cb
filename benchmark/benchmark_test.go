package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"regions/internal/trace"
)

// tinyDiv shrinks every workload to a smoke-test size: one input per paper
// application and 200 sessions per serving mix.
const tinyDiv = 200

func readBenchmarkJSON(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		spec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	return &s.spec
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	s := readBenchmarkJSON(t)
	for _, set := range []struct {
		json []specMetric
		defs []metricDef
	}{{s.EndToEnd, endToEnd}, {s.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the catalog %d", len(set.json), len(set.defs))
			continue
		}
		for i, m := range set.json {
			if d := set.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), catalog %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// simMetrics returns every simulated-clock metric of r.
func simMetrics(r *result) map[string]float64 {
	out := map[string]float64{}
	for _, d := range endToEnd {
		if d.sim {
			out[d.name] = r.EndToEnd[d.name].Value
		}
	}
	for _, d := range perLayer {
		if d.sim {
			out[d.name] = r.PerLayer[d.name].Value
		}
	}
	return out
}

// TestWorkloads runs every workload at tiny size. measure itself checks the
// outputs: the cycle ledgers, span conservation, quantile order, and that
// every repetition, traced or not, gives the same simulated outputs.
func TestWorkloads(t *testing.T) {
	s := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64, capacity bool) *result {
				w, err := newWorkload(name, seed, tinyDiv)
				if err != nil {
					t.Fatal(err)
				}
				res, err := measure(name, w, options{seed: seed, capacity: capacity})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("output checks failed:\n%s", strings.Join(res.Errors, "\n"))
				}
				return res
			}
			res := run(1, true)
			for _, set := range []struct {
				json []specMetric
				got  map[string]metric
			}{{s.EndToEnd, res.EndToEnd}, {s.PerLayer, res.PerLayer}} {
				for _, m := range set.json {
					if got, ok := set.got[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s: got %+v (reported %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if name == "paper-apps" {
				return // its repetitions already repeat every simulated output
			}
			again := run(1, false)
			again.e2e("capacity_rate", res.EndToEnd["capacity_rate"].Value) // not searched twice
			if a, b := simMetrics(res), simMetrics(again); !reflect.DeepEqual(a, b) {
				t.Errorf("simulated metrics differ between two runs of seed 1:\n%v\n%v", a, b)
			}
			w1, _ := newWorkload(name, 1, tinyDiv)
			w2, _ := newWorkload(name, 2, tinyDiv)
			o1, err1 := w1.rep()
			o2, err2 := w2.rep()
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if o1.sim == o2.sim {
				t.Errorf("seed 2 repeats seed 1's outputs: %s", o1.sim)
			}
		})
	}
}

func TestCountsQuantileIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h counts
	var all []uint64
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(300))
		if i%50 == 0 {
			v = uint64(4096 + rng.Intn(100000)) // beyond the tallied range
		}
		h.add(v)
		all = append(all, v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := h.quantile(q), trace.QuantileExact(all, q); got != want {
			t.Errorf("q=%g: got %d, trace.QuantileExact %d", q, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and (range(1, 10), n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.5, 5, 7.5}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{1.00, 1.01, 1.02, 1.03, 1.04}
	for _, c := range []struct {
		change []float64
		better string
		want   string
	}{
		{[]float64{1.00, 1.01, 1.02, 1.03, 1.04}, "lower", "ok"},
		{[]float64{1.30, 1.31, 1.32, 1.33, 1.34}, "lower", "worse"},
		{[]float64{1.30, 1.31, 1.32, 1.33, 1.34}, "higher", "ok"},
		{[]float64{0.5, 0.8, 1.0, 1.5, 2.0}, "lower", "unresolved"},
	} {
		if got := verdict(parent, c.change, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.change, c.better, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"regions/internal/mem.(*Space).access":            "mem",
		"regions/internal/core.(*Runtime).Ralloc":         "core",
		"regions/internal/apps/cfrac.regionFactor.func1":  "apps",
		"regions/internal/apps/appkit.(*coreEnv).Ralloc":  "apps",
		"runtime.mallocgc":                                "goruntime",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "goruntime",
		"sort.insertionSort_func":                         "",
		"slices.SortFunc[go.shape.[]regions/internal/x]":  "",
		"main.(*meteredEnv).Ralloc":                       "",
		"regions/internal/cachesim.(*level).access":       "cachesim",
		"regions/internal/metrics.(*Histogram).Observe":   "metrics",
		"regions/internal/serve.(*server).allocPhase":     "serve",
		"regions/internal/trace.(*Tracer).Emit":           "trace",
		"regions/internal/shard.(*worker).loop":           "shard",
		"runtime/pprof.(*profileBuilder).addCPUData":      "",
		"regions/internal/apps/minicc.(*compiler).expr":   "apps",
		"regions/internal/core.(*Runtime).StorePtr.func1": "core",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
