// Regionbench regenerates the evaluation of Gay & Aiken, "Memory Management
// with Explicit Regions" (PLDI 1998): Tables 1-3 and Figures 8-11 of
// Section 5, measured on this repository's simulated machine.
//
// Usage:
//
//	regionbench [-scale-div N] [-table N] [-figure N] [-all] [-ablation]
//	            [-related] [-json] [-verify=false]
//
// With -scale-div 1 (the default) the workloads are paper-sized; larger
// divisors shrink them proportionally for quick runs. Selections combine:
// every selected section is rendered, in one fixed order, after the
// checksum cross-check that -verify=false skips. -related ends with the
// synthetic-trace tables (uniform, bimodal and phased traces replayed
// against the malloc implementations).
//
// The benchmark-report modes regenerate and gate the checked-in artifacts:
// -bench-out FILE writes a fresh regions-bench/v2 report, and
// -compare FILE re-measures and diffs against a checked-in report
// (Snapshot.Sub over the embedded metrics, simulated cycles per op over the
// micro benchmarks), exiting nonzero when a micro benchmark regresses
// beyond -compare-threshold.
//
// The throughput modes (-shards, -bench-out, -compare) accept -metrics-addr HOST:PORT
// to serve live observability over HTTP while the workload runs:
// GET /metrics is a Prometheus text-format scrape of the shared registry and
// GET /heap is a JSON array of the latest per-shard heap profiles (see
// docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"

	"regions/internal/bench"
	"regions/internal/metrics"
	"regions/internal/shard"
)

func main() {
	var (
		scaleDiv = flag.Int("scale-div", 1, "divide every app's default workload by this factor")
		table    = flag.Int("table", 0, "render table N (1-3)")
		figure   = flag.Int("figure", 0, "render figure N (8-11)")
		all      = flag.Bool("all", false, "render every table and figure (default if nothing selected)")
		ablation = flag.Bool("ablation", false, "render the ablation experiments")
		related  = flag.Bool("related", false, "render the related-work allocator comparison and trace tables")
		jsonOut  = flag.Bool("json", false, "emit the full measurement matrix as JSON")
		verify   = flag.Bool("verify", true, "cross-check checksums across environments first")
		shards   = flag.Int("shards", 0, "run the whole-app throughput workload on N shards")
		repeats  = flag.Int("repeats", 4, "copies of each app per throughput run")
		benchOut = flag.String("bench-out", "", "write the benchmark report (micro + shard sweep) to this file")
		compare  = flag.String("compare", "", "compare a fresh benchmark run against this checked-in report; nonzero exit on regression")
		compThr  = flag.Float64("compare-threshold", bench.DefaultCompareThreshold,
			"allowed fractional sim-cycle increase per micro benchmark before -compare fails")
		metAddr  = flag.String("metrics-addr", "", "serve /metrics and /heap on this address during throughput runs")
		profEach = flag.Int("heap-profile-every", 64, "shard heap-profile cadence in tasks when -metrics-addr is set (0 disables)")
	)
	flag.Parse()

	// Validate every selection before any measurement runs: a typo'd flag
	// should fail in milliseconds, not after the paper-sized workloads.
	if *scaleDiv < 1 {
		fmt.Fprintf(os.Stderr, "regionbench: -scale-div must be at least 1, got %d\n", *scaleDiv)
		os.Exit(2)
	}
	if *table < 0 || *table > 3 {
		fmt.Fprintf(os.Stderr, "regionbench: tables are 1-3, got %d\n", *table)
		os.Exit(2)
	}
	if *figure != 0 && (*figure < 8 || *figure > 11) {
		fmt.Fprintf(os.Stderr, "regionbench: figures are 8-11, got %d\n", *figure)
		os.Exit(2)
	}
	// -shards 0 is the "disabled" default; spelling it out explicitly is a
	// mistake worth naming, as is any negative count.
	explicitShards := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			explicitShards = true
		}
	})
	if *shards < 0 || (explicitShards && *shards == 0) {
		fmt.Fprintf(os.Stderr, "regionbench: -shards must be at least 1, got %d\n", *shards)
		os.Exit(2)
	}
	if *repeats < 1 {
		fmt.Fprintf(os.Stderr, "regionbench: -repeats must be at least 1, got %d\n", *repeats)
		os.Exit(2)
	}
	if *profEach < 0 {
		fmt.Fprintf(os.Stderr, "regionbench: -heap-profile-every must be at least 0, got %d\n", *profEach)
		os.Exit(2)
	}
	if *compare != "" && *benchOut != "" {
		fmt.Fprintln(os.Stderr, "regionbench: -compare and -bench-out are mutually exclusive")
		os.Exit(2)
	}
	if *compThr < 0 {
		fmt.Fprintf(os.Stderr, "regionbench: -compare-threshold must be at least 0, got %g\n", *compThr)
		os.Exit(2)
	}
	// Load (and validate) the old report before measuring anything, so a
	// missing file or wrong schema_version fails in milliseconds.
	var oldReport *bench.Report
	if *compare != "" {
		var err error
		if oldReport, err = bench.LoadReport(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(2)
		}
	}

	s := bench.NewSuite(*scaleDiv)
	w := os.Stdout

	// The throughput/report modes are self-contained: run them and exit.
	// Both accept -metrics-addr for live scraping while they run.
	opts, reg := metricsOpts(*metAddr, *profEach)
	if oldReport != nil {
		rep, err := bench.BuildBenchReportOpts(*scaleDiv, *repeats, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "comparing against %s\n", *compare)
		regressions := bench.CompareReports(w, oldReport, rep, *compThr)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "regionbench: %d regression(s):\n", len(regressions))
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintln(w, "\nno regressions")
		return
	}
	if *benchOut != "" {
		f, err := os.Create(*benchOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
		rep, err := bench.BuildBenchReportOpts(*scaleDiv, *repeats, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
		if err := bench.EncodeBenchReport(f, rep); err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "wrote %s\n", *benchOut)
		return
	}
	if *shards > 0 {
		r, err := bench.RunThroughputOpts(*shards, *scaleDiv, *repeats, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
		bench.PrintThroughput(w, r)
		if reg != nil {
			allocs, _ := reg.Snapshot().Counter("regions_core_allocs_total")
			fmt.Fprintf(w, "metrics: %d simulated allocs across the run\n", allocs)
		}
		return
	}

	sel := selection{all: *all, ablation: *ablation, related: *related, json: *jsonOut,
		verify: *verify, table: *table, figure: *figure}
	if err := render(w, s, sel); err != nil {
		fmt.Fprintln(os.Stderr, "regionbench:", err)
		os.Exit(1)
	}
}

// selection is what one regionbench run renders from the suite.
type selection struct {
	all, ablation, related, json, verify bool
	table, figure                        int
}

// verifyChecksums is the cross-check render runs first when sel.verify is
// set.
var verifyChecksums = (*bench.Suite).VerifyChecksums

// render writes every section sel selects, one blank line apart, in one
// fixed order: the JSON measurement matrix, the paper's tables and figures
// (all of them under sel.all, which is also the default when nothing else
// is selected), the ablations, then the related work. With sel.verify it
// first cross-checks that every environment computes every application's
// result.
func render(w io.Writer, s *bench.Suite, sel selection) error {
	if sel.verify {
		if err := verifyChecksums(s); err != nil {
			return err
		}
	}
	if sel.table == 0 && sel.figure == 0 && !sel.ablation && !sel.related && !sel.json {
		sel.all = true
	}
	first := true
	section := func() {
		if !first {
			fmt.Fprintln(w)
		}
		first = false
	}
	if sel.json {
		section()
		if err := bench.WriteJSON(w, s); err != nil {
			return err
		}
	}
	paper := map[int]func(){1: func() { bench.Table1(w) }, 2: func() { bench.Table2(w, s) },
		3: func() { bench.Table3(w, s) }, 8: func() { bench.Figure8(w, s) },
		9: func() { bench.Figure9(w, s) }, 10: func() { bench.Figure10(w, s) },
		11: func() { bench.Figure11(w, s) }}
	selected := []int{sel.table, sel.figure}
	if sel.all {
		section()
		fmt.Fprintf(w, "Workload scale: 1/%d of the paper-sized runs\n", s.ScaleDiv)
		selected = []int{1, 2, 3, 8, 9, 10, 11}
	}
	for _, n := range selected {
		if n != 0 {
			section()
			paper[n]()
		}
	}
	if sel.ablation {
		section()
		bench.Ablations(w, s)
	}
	if sel.related {
		section()
		bench.RelatedWork(w, s)
	}
	return nil
}

// metricsOpts builds the throughput observability hooks. With an empty addr
// it still attaches a registry (so the report embeds a metrics snapshot)
// but starts no server; with an address it serves GET /metrics (Prometheus
// text format) and GET /heap (JSON heap profiles, populated once shards
// start capturing) for the lifetime of the process.
func metricsOpts(addr string, profEvery int) (bench.ThroughputOpts, *metrics.Registry) {
	reg := metrics.NewRegistry()
	opts := bench.ThroughputOpts{Metrics: reg}
	if addr == "" {
		return opts, reg
	}
	var eng atomic.Value // *shard.Engine
	opts.HeapProfileEvery = profEvery
	opts.OnEngine = func(e *shard.Engine) { eng.Store(e) }
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/heap", metrics.HeapHandler(func() ([]*metrics.HeapReport, error) {
		if e, ok := eng.Load().(*shard.Engine); ok {
			return e.HeapReports(), nil
		}
		return nil, nil
	}))
	ln := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := ln.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "regionbench: metrics server:", err)
		}
	}()
	fmt.Printf("serving /metrics and /heap on %s\n", addr)
	return opts, reg
}
