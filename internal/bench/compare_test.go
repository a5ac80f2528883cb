package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"regions/internal/metrics"
	"regions/internal/serve"
)

func writeTempReport(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// leavesOf flattens v as the compare gate does, failing the test on an
// encoding error.
func leavesOf(t *testing.T, v any) Leaves {
	t.Helper()
	l, err := LeavesOf(v)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoadReportErrors pins the fail-fast contract: every malformed artifact
// produces a descriptive error naming the problem, never a panic and never a
// silent zero report.
func TestLoadReportErrors(t *testing.T) {
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil ||
		!strings.Contains(err.Error(), "read report") {
		t.Errorf("missing file: err = %v, want read error", err)
	}
	cases := []struct{ name, content, want string }{
		{"bad-json", "{not json", "parse report"},
		{"wrong-schema", `{"schema":"other/v1","schema_version":2}`, "not a regions-bench report"},
		{"old-version", `{"schema":"regions-bench/v1","schema_version":1}`, "schema_version 1"},
	}
	for _, c := range cases {
		_, err := LoadReport(writeTempReport(t, c.name+".json", c.content))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestLoadReportRoundTrip: a written report loads as the leaves of its
// encoding, each named by its path, numbers exactly as written.
func TestLoadReportRoundTrip(t *testing.T) {
	r := &Report{Schema: "regions-bench/v2", SchemaVersion: ReportSchemaVersion,
		ScaleDiv: 4, Repeats: 2,
		Micro: []MicroResult{{Name: "ralloc/16B", Ops: 10, SimCyclesPerOp: 15.98043}}}
	var buf bytes.Buffer
	if err := EncodeBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(writeTempReport(t, "ok.json", buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got["scaleDiv"] != json.Number("4") || got["micro[ralloc/16B].simCyclesPerOp"] != json.Number("15.98043") {
		t.Fatalf("round trip mangled report: %v", got)
	}
	if want := leavesOf(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded leaves %v, encoded %v", got, want)
	}
}

// TestCompareReportsMicroGate: a micro benchmark's leaves are gated at any
// configuration, so a cheaper benchmark and an added one fail like a
// dearer one, while its wall-clock time is context. An entry is keyed by
// its name, so one added in front moves no other entry's path.
func TestCompareReportsMicroGate(t *testing.T) {
	a := MicroResult{Name: "a", Ops: 10, NsPerOp: 3, SimCyclesPerOp: 10}
	report := func(scaleDiv int, micro ...MicroResult) Leaves {
		return leavesOf(t, &Report{ScaleDiv: scaleDiv, Repeats: 2, Micro: micro})
	}
	old := report(4, a)
	slower, cheaper := a, a
	slower.NsPerOp = 30
	cheaper.SimCyclesPerOp = 6
	for _, scaleDiv := range []int{4, 8} {
		cases := []struct {
			name string
			cur  Leaves
			want []string
		}{
			{"host timing", report(scaleDiv, slower), nil},
			{"cheaper", report(scaleDiv, cheaper), []string{"micro[a].simCyclesPerOp: 10 -> 6"}},
			{"added", report(scaleDiv, MicroResult{Name: "b", Ops: 1}, a),
				[]string{`micro[b].name: absent -> "b"`, "micro[b].ops: absent -> 1"}},
		}
		for _, c := range cases {
			var buf bytes.Buffer
			if regs := CompareReports(&buf, old, c.cur); !reflect.DeepEqual(regs, c.want) {
				t.Errorf("%s at scaleDiv %d: regressions %q, want %q", c.name, scaleDiv, regs, c.want)
			}
			if c.want == nil && !strings.Contains(buf.String(), "micro[a].nsPerOp: 3 -> 30 (context)") {
				t.Errorf("%s at scaleDiv %d: host timing not shown as context:\n%s", c.name, scaleDiv, buf.String())
			}
		}
	}
}

// TestCompareReportsChecksumGate: checksum drift fails only when the configs
// match — at a different scale the workloads legitimately differ, so the
// comparison is context, not a gate.
func TestCompareReportsChecksumGate(t *testing.T) {
	old := leavesOf(t, &Report{ScaleDiv: 4, Repeats: 2,
		Throughput: []ThroughputResult{{Shards: 4, Checksum: 0x1234}}})
	cur := &Report{ScaleDiv: 4, Repeats: 2,
		Throughput: []ThroughputResult{{Shards: 4, Checksum: 0x9999}}}
	regs := CompareReports(io.Discard, old, leavesOf(t, cur))
	if want := []string{"throughput[0].checksum: 4660 -> 39321"}; !reflect.DeepEqual(regs, want) {
		t.Fatalf("regressions = %q, want %q", regs, want)
	}

	cur.ScaleDiv = 8 // different workload size: context only
	if regs := CompareReports(io.Discard, old, leavesOf(t, cur)); len(regs) != 0 {
		t.Fatalf("checksum flagged across differing configs: %v", regs)
	}
}

// plantCase is one planted change to a report and the paths of the leaves
// the gate must name for it.
type plantCase struct {
	name  string
	plant func(r *Report)
	want  []string
}

// checkPlants holds the gate to each planted change: at one config it
// fails naming exactly the planted leaves, at another it passes.
func checkPlants(t *testing.T, report func() *Report, cases []plantCase) {
	t.Helper()
	old := leavesOf(t, report())
	var buf bytes.Buffer
	if regs := CompareReports(&buf, old, leavesOf(t, report())); len(regs) != 0 {
		t.Fatalf("identical reports regress: %v", regs)
	}
	if !strings.HasSuffix(buf.String(), "(no gated differences)\n") {
		t.Errorf("identical reports print differences:\n%s", buf.String())
	}
	for _, c := range cases {
		cur := report()
		c.plant(cur)
		regs := CompareReports(io.Discard, old, leavesOf(t, cur))
		var paths []string
		for _, r := range regs {
			paths = append(paths, r[:strings.Index(r, ": ")])
		}
		if !reflect.DeepEqual(paths, c.want) {
			t.Errorf("%s: regressions %q, want one per path %q", c.name, regs, c.want)
		}
		cur.ScaleDiv = 8
		if regs := CompareReports(io.Discard, old, leavesOf(t, cur)); len(regs) != 0 {
			t.Errorf("%s: gated across differing configs: %v", c.name, regs)
		}
	}
}

// TestCompareReportsGatesExactNumbers: at one config every simulated
// number is exact, so a makespan one cycle longer, a moved per-shard split
// or steal count, a changed imbalance run, a counter off by one and a
// series only one side has each fail the gate; at another config they are
// context.
func TestCompareReportsGatesExactNumbers(t *testing.T) {
	report := func() *Report {
		return &Report{ScaleDiv: 4, Repeats: 4,
			Throughput: []ThroughputResult{{Shards: 2, Checksum: 0x1234,
				SimMakespanMcycles: 119.643992, PerShardMcycles: []float64{119.643992, 119.643992}}},
			Imbalance: &ImbalanceResult{Shards: 4, App: "cfrac",
				NoSteal: ThroughputResult{SimMakespanMcycles: 112.682208},
				Steal:   ThroughputResult{SimMakespanMcycles: 50.147284, Steals: 4}},
			Metrics: &metrics.Snapshot{Counters: []metrics.CounterValue{
				{Name: "regions_core_allocs_total", Value: 100}}},
		}
	}
	const series = "metrics.counters[regions_core_allocs_total]"
	checkPlants(t, report, []plantCase{
		{"makespan", func(r *Report) { r.Throughput[0].SimMakespanMcycles = 119.643993 },
			[]string{"throughput[0].simMakespanMcycles"}},
		{"per-shard", func(r *Report) { r.Throughput[0].PerShardMcycles[1] = 119.643991 },
			[]string{"throughput[0].perShardMcycles[1]"}},
		{"steals", func(r *Report) { r.Throughput[0].Steals = 1 }, []string{"throughput[0].steals"}},
		{"imbalance", func(r *Report) { r.Imbalance.Steal.SimMakespanMcycles = 48.049526 },
			[]string{"imbalance.steal.simMakespanMcycles"}},
		{"counter", func(r *Report) { r.Metrics.Counters[0].Value = 101 }, []string{series + ".value"}},
		{"added series", func(r *Report) {
			r.Metrics.Counters = append([]metrics.CounterValue{{Name: "regions_new_total", Value: 5}}, r.Metrics.Counters...)
		}, []string{"metrics.counters[regions_new_total].name", "metrics.counters[regions_new_total].value"}},
		{"kind", func(r *Report) {
			r.Metrics = &metrics.Snapshot{Histograms: []metrics.HistogramValue{
				{Name: "regions_core_allocs_total", Count: 1, Sum: 100}}}
		}, []string{"metrics.counters", series + ".name", series + ".value", "metrics.histograms",
			"metrics.histograms[regions_core_allocs_total].buckets",
			"metrics.histograms[regions_core_allocs_total].count",
			"metrics.histograms[regions_core_allocs_total].name",
			"metrics.histograms[regions_core_allocs_total].sum"}},
	})
}

// TestCompareReportsGatesExactServing: a serving run is deterministic for
// its seed, so at one config a moved p99, slowest request, mean, shed
// count, makespan, per-shard clock, mapped byte count or reclamation lag
// fails the gate though the checksum held, in the serve scenario and in
// either arm of both A/Bs; at another config they are context.
func TestCompareReportsGatesExactServing(t *testing.T) {
	result := func() *serve.Result {
		return &serve.Result{Sessions: 100, Completed: 100, P50: 50, P99: 100, P999: 120,
			MaxCycles: 130, Mean: 60, Checksum: 0xabcd, MakespanCycles: 5000,
			PerShard: []serve.ShardStats{{Shard: 0, BusyUntilCycles: 5000}}}
	}
	report := func() *Report {
		return &Report{ScaleDiv: 4, Repeats: 4,
			Serve:   result(),
			ServeAB: &ServeABResult{Sessions: 100, Sync: result(), Deferred: result()},
			StrAB:   &StrABResult{Sessions: 100, Pooled: result(), NoPool: result()},
		}
	}
	checkPlants(t, report, []plantCase{
		{"p99", func(r *Report) { r.Serve.P99 = 999 }, []string{"serve.p99Cycles"}},
		{"max", func(r *Report) { r.Serve.MaxCycles = 131 }, []string{"serve.maxCycles"}},
		{"mean", func(r *Report) { r.Serve.Mean = 61 }, []string{"serve.meanCycles"}},
		{"sheds", func(r *Report) { r.Serve.ShedQueue = 1 }, []string{"serve.shedQueue"}},
		{"makespan", func(r *Report) { r.Serve.MakespanCycles = 5001 }, []string{"serve.makespanCycles"}},
		{"per-shard", func(r *Report) { r.Serve.PerShard[0].BusyUntilCycles = 4999 },
			[]string{"serve.perShard[0].busyUntilCycles"}},
		{"deferred", func(r *Report) { r.ServeAB.Deferred.P50 = 49 }, []string{"serveAB.deferred.p50Cycles"}},
		{"lag", func(r *Report) { r.ServeAB.Deferred.ReclamationLagCycles = 1 },
			[]string{"serveAB.deferred.reclamationLagCycles"}},
		{"mapped", func(r *Report) { r.StrAB.Pooled.MappedBytes = 4096 }, []string{"strAB.pooled.mappedBytes"}},
		{"no-pool", func(r *Report) { r.StrAB.NoPool.MaxCycles = 7 }, []string{"strAB.noPool.maxCycles"}},
	})
}

// perturb returns a leaf value nudged by one unit: an integer plus one, a
// fraction with one more digit, a string with one more letter, a bool
// flipped.
func perturb(v any) any {
	switch v := v.(type) {
	case json.Number:
		if n, err := v.Int64(); err == nil {
			return json.Number(strconv.FormatInt(n+1, 10))
		}
		return v + "1"
	case string:
		return v + "x"
	case bool:
		return !v
	}
	panic(fmt.Sprintf("perturb: unexpected leaf %v", v))
}

// artifactLeaf is one leaf of a decoded report: its path under the compare
// gate's naming rule, restated here, and a setter that stores a value and
// returns the one it replaced. A name leaf also carries its element's path.
type artifactLeaf struct {
	path, elem string
	set        func(any) any
}

// artifactLeaves lists the leaves of the decoded JSON value v under path.
func artifactLeaves(path string, v any) []artifactLeaf {
	var out []artifactLeaf
	add := func(p string, x any, set func(any) any) {
		switch x.(type) {
		case map[string]any, []any:
			out = append(out, artifactLeaves(p, x)...)
		default:
			out = append(out, artifactLeaf{path: p, set: set})
		}
	}
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			add(p, x, func(n any) any { o := v[k]; v[k] = n; return o })
		}
	case []any:
		for i, x := range v {
			key, named := "", false
			if m, ok := x.(map[string]any); ok {
				key, named = m["name"].(string)
			}
			if !named {
				key = strconv.Itoa(i)
			}
			elem := path + "[" + key + "]"
			first := len(out)
			add(elem, x, func(n any) any { o := v[i]; v[i] = n; return o })
			if named {
				for j := first; j < len(out); j++ {
					if out[j].path == elem+".name" {
						out[j].elem = elem
					}
				}
			}
		}
	}
	return out
}

// TestCompareReportsGatesEveryLeaf perturbs each leaf of the checked-in
// artifact in turn, in a copy, and holds the gate to its rule. At the
// artifact's configuration a perturbed host or configuration leaf is
// context and any other leaf fails the gate alone, under its own path; a
// perturbed name renames its element, so every gated leaf of the element
// fails, once under the old name and once under the new. With scaleDiv
// changed, only the micro leaves fail.
func TestCompareReportsGatesEveryLeaf(t *testing.T) {
	const artifact = "../../BENCH_PR10.json"
	old, err := LoadReport(artifact)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	leaves := artifactLeaves("", tree)
	if len(leaves) != len(old) {
		t.Fatalf("%d leaves in the artifact, %d flattened", len(leaves), len(old))
	}
	isContext := func(path string) bool {
		return hostLeaves[path[strings.LastIndex(path, ".")+1:]] || path == "scaleDiv" || path == "repeats"
	}
	// elemLeaves counts the gated leaves under an element's path.
	elemLeaves := func(elem string) int {
		n := 0
		for p := range old {
			if strings.HasPrefix(p, elem+".") && !isContext(p) {
				n++
			}
		}
		return n
	}
	// try compares the tree with l perturbed against the artifact.
	try := func(l artifactLeaf) []string {
		orig := l.set(nil)
		l.set(perturb(orig))
		defer l.set(orig)
		cur := Leaves{}
		addLeaves(cur, "", tree)
		return CompareReports(io.Discard, old, cur)
	}
	var host, config, gatedN, names int
	for _, l := range leaves {
		regs := try(l)
		switch {
		case isContext(l.path):
			if l.path == "scaleDiv" || l.path == "repeats" {
				config++
			} else {
				host++
			}
			if len(regs) != 0 {
				t.Errorf("%s is context, but gated: %q", l.path, regs)
			}
		case l.elem != "":
			names++
			renamed := l.elem[:len(l.elem)-1] + "x]"
			ok := len(regs) == 2*elemLeaves(l.elem)
			for _, r := range regs {
				ok = ok && (strings.HasPrefix(r, l.elem+".") || strings.HasPrefix(r, renamed+"."))
			}
			if !ok {
				t.Errorf("renamed %s to %s: regressions %q", l.elem, renamed, regs)
			}
		default:
			gatedN++
			if len(regs) != 1 || !strings.HasPrefix(regs[0], l.path+": ") {
				t.Errorf("perturbed %s: regressions %q, want one naming it", l.path, regs)
			}
		}
	}
	t.Logf("%d leaves: %d host, %d configuration, %d gated, %d of them names", len(leaves), host, config, gatedN+names, names)
	if host == 0 || config != 2 || gatedN == 0 || names == 0 {
		t.Fatalf("vacuous walk: %d host, %d configuration, %d gated, %d names", host, config, gatedN, names)
	}

	// With the configuration changed, only the micro leaves are gated.
	var scaleDiv artifactLeaf
	for _, l := range leaves {
		if l.path == "scaleDiv" {
			scaleDiv = l
		}
	}
	scaleDiv.set(perturb(scaleDiv.set(nil)))
	micro := 0
	for _, l := range leaves {
		if l.path == "scaleDiv" {
			continue
		}
		regs := try(l)
		wantGated := strings.HasPrefix(l.path, "micro[") && !isContext(l.path)
		if wantGated {
			micro++
		}
		if (len(regs) != 0) != wantGated {
			t.Errorf("at another scaleDiv, perturbed %s: regressions %q, want gated %v", l.path, regs, wantGated)
		}
		for _, r := range regs {
			if !strings.HasPrefix(r, "micro[") {
				t.Errorf("at another scaleDiv, perturbed %s: gated %q", l.path, r)
			}
		}
	}
	if micro == 0 {
		t.Fatal("no micro leaf in the artifact")
	}
}
