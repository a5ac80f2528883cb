package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"regions/internal/metrics"
	"regions/internal/serve"
)

// ReportSchemaVersion is the integer version of the benchmark-report JSON.
// Version 2 added SchemaVersion itself and the embedded final metrics
// snapshot; version 1 (schema "regions-bench/v1") had neither.
const ReportSchemaVersion = 2

// Report is the checked-in benchmark artifact (BENCH_PR10.json); see
// docs/PERFORMANCE.md for the field-by-field schema and how to regenerate
// it. Wall-clock fields vary with the host; the simulated-cycle fields and
// checksums are deterministic.
type Report struct {
	Schema        string             `json:"schema"`
	SchemaVersion int                `json:"schema_version"`
	GoMaxProcs    int                `json:"goMaxProcs"`
	NumCPU        int                `json:"numCPU"`
	ScaleDiv      int                `json:"scaleDiv"`
	Repeats       int                `json:"repeats"`
	Micro         []MicroResult      `json:"micro"`
	Throughput    []ThroughputResult `json:"throughput"`
	// Imbalance is the work-stealing A/B on the skewed workload (see
	// RunImbalance): same tasks, static placement versus stealing, with
	// the max/min busy-cycle ratio per side.
	Imbalance *ImbalanceResult `json:"imbalance,omitempty"`
	// Serve is the fixed multi-tenant serving scenario (see
	// RunServeScenario): seeded arrivals over the serve defaults, with
	// deterministic latency percentiles and checksum. Optional so version-2
	// reports written before the scenario existed still load.
	Serve *serve.Result `json:"serve,omitempty"`
	// ServeAB is the deferred-reclamation A/B (see RunServeAB): the bulk
	// large-region scenario served synchronously and with DeferredDelete,
	// checksum-identical by construction. Optional so older version-2
	// reports still load.
	ServeAB *ServeABResult `json:"serveAB,omitempty"`
	// StrAB is the pooled-string-allocator A/B (see RunStrAB): the strheavy
	// buffer-recycling scenario served pooled and with NoStrPool,
	// checksum-identical by construction. Optional so older version-2
	// reports still load.
	StrAB *StrABResult `json:"strAB,omitempty"`
	// Metrics is the final snapshot of a registry attached to the whole
	// shard sweep: the cumulative core/mem/gc/shard series over every run
	// in Throughput. Simulated-cycle metrics in it are deterministic.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// BenchShardCounts is the shard sweep the report runs.
var BenchShardCounts = []int{1, 2, 4, 8}

// BuildBenchReport runs the micro benchmarks and the shard throughput sweep
// and assembles the report.
func BuildBenchReport(scaleDiv, repeats int) (*Report, error) {
	return BuildBenchReportOpts(scaleDiv, repeats, ThroughputOpts{Metrics: metrics.NewRegistry()})
}

// BuildBenchReportOpts is BuildBenchReport with the sweep's observability
// hooks under caller control; when opts.Metrics is non-nil its final
// snapshot is embedded in the report.
func BuildBenchReportOpts(scaleDiv, repeats int, opts ThroughputOpts) (*Report, error) {
	tp, err := ThroughputSweepOpts(scaleDiv, repeats, BenchShardCounts, opts)
	if err != nil {
		return nil, err
	}
	imb, err := RunImbalance(4, scaleDiv, opts.Metrics)
	if err != nil {
		return nil, err
	}
	srv, err := RunServeScenario(scaleDiv, opts.Metrics)
	if err != nil {
		return nil, err
	}
	ab, err := RunServeAB(scaleDiv, opts.Metrics)
	if err != nil {
		return nil, err
	}
	sab, err := RunStrAB(scaleDiv, opts.Metrics)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Schema:        "regions-bench/v2",
		SchemaVersion: ReportSchemaVersion,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		ScaleDiv:      scaleDiv,
		Repeats:       repeats,
		Micro:         RunMicro(),
		Throughput:    tp,
		Imbalance:     imb,
		Serve:         srv,
		ServeAB:       ab,
		StrAB:         sab,
	}
	if opts.Metrics != nil {
		r.Metrics = opts.Metrics.Snapshot()
	}
	return r, nil
}

// WriteBenchReport builds a report and writes it as indented JSON.
func WriteBenchReport(w io.Writer, scaleDiv, repeats int) error {
	r, err := BuildBenchReport(scaleDiv, repeats)
	if err != nil {
		return err
	}
	return EncodeBenchReport(w, r)
}

// EncodeBenchReport writes an already-built report as indented JSON.
func EncodeBenchReport(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintThroughput renders one throughput run as a human-readable line.
func PrintThroughput(w io.Writer, r ThroughputResult) {
	fmt.Fprintf(w, "shards=%d tasks=%d wall=%.2fs (%.1f tasks/s) sim-makespan=%.1f Mcycles checksum=%#x\n",
		r.Shards, r.Tasks, r.WallSeconds, r.TasksPerSec, r.SimMakespanMcycles, r.Checksum)
}
