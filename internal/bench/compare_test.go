package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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

func TestLoadReportRoundTrip(t *testing.T) {
	r := &Report{Schema: "regions-bench/v2", SchemaVersion: ReportSchemaVersion,
		ScaleDiv: 4, Repeats: 2,
		Micro: []MicroResult{{Name: "ralloc/16B", Ops: 10, SimCyclesPerOp: 16}}}
	var buf bytes.Buffer
	if err := EncodeBenchReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(writeTempReport(t, "ok.json", buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ScaleDiv != 4 || got.Repeats != 2 || len(got.Micro) != 1 || got.Micro[0].Name != "ralloc/16B" {
		t.Fatalf("round trip mangled report: %+v", got)
	}
}

// TestCompareReportsMicroGate exercises the regression decision: an
// improvement and a new benchmark never fail, growth inside the threshold
// passes, growth beyond it is reported with the offending name.
func TestCompareReportsMicroGate(t *testing.T) {
	old := &Report{ScaleDiv: 4, Repeats: 2, Micro: []MicroResult{
		{Name: "a", SimCyclesPerOp: 10},
		{Name: "b", SimCyclesPerOp: 20},
	}}
	cur := &Report{ScaleDiv: 4, Repeats: 2, Micro: []MicroResult{
		{Name: "a", SimCyclesPerOp: 6},    // improvement
		{Name: "b", SimCyclesPerOp: 20.5}, // +2.5%, inside the 5% threshold
		{Name: "c", SimCyclesPerOp: 99},   // new benchmark: no baseline, no regression
	}}
	var buf bytes.Buffer
	if regs := CompareReports(&buf, old, cur, DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("regressions on an improving run: %v", regs)
	}
	for _, want := range []string{"a", "b", "c", "new"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("delta table missing %q:\n%s", want, buf.String())
		}
	}

	cur.Micro[1].SimCyclesPerOp = 22 // +10%
	regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
	if len(regs) != 1 || !strings.Contains(regs[0], "b:") {
		t.Fatalf("regressions = %v, want exactly one naming b", regs)
	}
}

// TestCompareReportsChecksumGate: checksum drift fails only when the configs
// match — at a different scale the workloads legitimately differ, so the
// comparison is context, not a gate.
func TestCompareReportsChecksumGate(t *testing.T) {
	old := &Report{ScaleDiv: 4, Repeats: 2,
		Throughput: []ThroughputResult{{Shards: 4, Checksum: 0x1234}}}
	cur := &Report{ScaleDiv: 4, Repeats: 2,
		Throughput: []ThroughputResult{{Shards: 4, Checksum: 0x9999}}}
	regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
	if len(regs) != 1 || !strings.Contains(regs[0], "checksum") {
		t.Fatalf("regressions = %v, want one checksum mismatch", regs)
	}

	cur.ScaleDiv = 8 // different workload size: context only
	if regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("checksum flagged across differing configs: %v", regs)
	}
}

// TestCompareReportsGatesExactNumbers: at one config every simulated
// number is exact, so a makespan one cycle longer, a moved per-shard split
// or steal count, a changed imbalance run and a counter off by one each
// fail the gate; at another config they are context. A series only the
// new report has prints as added and fails nothing.
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
	old := report()
	var buf bytes.Buffer
	if regs := CompareReports(&buf, old, report(), DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("identical reports regress: %v", regs)
	}
	if !strings.Contains(buf.String(), "(no differences)") {
		t.Errorf("identical metrics print a delta:\n%s", buf.String())
	}

	cases := []struct {
		name  string
		plant func(r *Report)
		want  string
	}{
		{"makespan", func(r *Report) { r.Throughput[0].SimMakespanMcycles = 119.643993 }, "makespan 119.643993"},
		{"per-shard", func(r *Report) { r.Throughput[0].PerShardMcycles[1] = 119.643991 }, "per-shard"},
		{"steals", func(r *Report) { r.Throughput[0].Steals = 1 }, "1 steals"},
		{"imbalance", func(r *Report) { r.Imbalance.Steal.SimMakespanMcycles = 48.049526 }, "imbalance stealing"},
		{"counter", func(r *Report) { r.Metrics.Counters[0].Value = 101 }, "regions_core_allocs_total"},
		{"kind", func(r *Report) {
			r.Metrics = &metrics.Snapshot{Histograms: []metrics.HistogramValue{
				{Name: "regions_core_allocs_total", Count: 1, Sum: 100}}}
		}, "regions_core_allocs_total"},
	}
	for _, c := range cases {
		cur := report()
		c.plant(cur)
		regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
		if len(regs) != 1 || !strings.Contains(regs[0], c.want) {
			t.Errorf("%s: regressions = %v, want one naming %q", c.name, regs, c.want)
		}
		cur.ScaleDiv = 8
		if regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold); len(regs) != 0 {
			t.Errorf("%s: gated across differing configs: %v", c.name, regs)
		}
	}

	cur := report()
	cur.Metrics.Counters = append(cur.Metrics.Counters, metrics.CounterValue{Name: "regions_new_total", Value: 5})
	buf.Reset()
	if regs := CompareReports(&buf, old, cur, DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("an added series regresses: %v", regs)
	}
	if !strings.Contains(buf.String(), "regions_new_total") || !strings.Contains(buf.String(), "added") {
		t.Errorf("added series not shown as added:\n%s", buf.String())
	}
}

// TestCompareReportsGatesExactServing: a serving run's latency order
// statistics, mean, completions and sheds are exact, so at one config a
// p99 or a slowest request that moved fails the gate though the checksum
// held, in the serve scenario and in either arm of both A/Bs; at another
// config they are context.
func TestCompareReportsGatesExactServing(t *testing.T) {
	result := func() *serve.Result {
		return &serve.Result{Sessions: 100, Completed: 100, P50: 50, P99: 100, P999: 120,
			MaxCycles: 130, Mean: 60, Checksum: 0xabcd}
	}
	report := func() *Report {
		return &Report{ScaleDiv: 4, Repeats: 4,
			Serve:   result(),
			ServeAB: &ServeABResult{Sessions: 100, Sync: result(), Deferred: result()},
			StrAB: &StrABResult{Sessions: 100, Pooled: &serve.Result{StrReuse: 1, Checksum: 1},
				NoPool: &serve.Result{Checksum: 1}},
		}
	}
	old := report()
	if regs := CompareReports(io.Discard, old, report(), DefaultCompareThreshold); len(regs) != 0 {
		t.Fatalf("identical reports regress: %v", regs)
	}
	cases := []struct {
		name  string
		plant func(r *Report)
		want  string
	}{
		{"p99", func(r *Report) { r.Serve.P99 = 999 }, "serve: p99 999, artifact has 100"},
		{"max", func(r *Report) { r.Serve.MaxCycles = 131 }, "serve: max 131"},
		{"mean", func(r *Report) { r.Serve.Mean = 61 }, "serve: mean 61"},
		{"sheds", func(r *Report) { r.Serve.ShedQueue = 1 }, "serve: queue sheds 1"},
		{"deferred", func(r *Report) { r.ServeAB.Deferred.P50 = 49 }, "serve A/B deferred: p50 49"},
		{"no-pool", func(r *Report) { r.StrAB.NoPool.MaxCycles = 7 }, "string-pool A/B no-pool: max 7"},
	}
	for _, c := range cases {
		cur := report()
		c.plant(cur)
		regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold)
		if len(regs) != 1 || !strings.Contains(regs[0], c.want) {
			t.Errorf("%s: regressions = %v, want one naming %q", c.name, regs, c.want)
		}
		cur.ScaleDiv = 8
		if regs := CompareReports(io.Discard, old, cur, DefaultCompareThreshold); len(regs) != 0 {
			t.Errorf("%s: gated across differing configs: %v", c.name, regs)
		}
	}
}
