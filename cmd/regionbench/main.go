// Regionbench regenerates the evaluation of Gay & Aiken, "Memory Management
// with Explicit Regions" (PLDI 1998): Tables 1-3 and Figures 8-11 of
// Section 5, measured on this repository's simulated machine.
//
// Usage:
//
//	regionbench [-scale-div N] [-table N] [-figure N] [-all] [-ablation]
//	            [-related] [-json] [-verify=false]
//	regionbench [-scale-div N] [-repeats N] -shards N | -bench-out FILE | -compare FILE
//	            [-metrics-addr HOST:PORT [-heap-profile-every N]]
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
// -compare FILE re-measures and diffs every JSON leaf of the fresh report
// against the checked-in one, exiting 1 on any gated difference: a micro
// benchmark leaf at any configuration, and every other simulated leaf when
// -scale-div and -repeats match the artifact's. Host timings are context.
//
// The throughput modes (-shards, -bench-out, -compare) take -repeats and
// -metrics-addr HOST:PORT, which serves live observability over HTTP while
// the workload runs: GET /metrics is a Prometheus text-format scrape of the
// shared registry and GET /heap is a JSON array of the latest per-shard heap
// profiles (see docs/OBSERVABILITY.md). A flag the selected mode ignores is
// an error (exit 2), as are a rendering flag in a throughput mode and an
// argument that is not a flag.
package main

import (
	"errors"
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

// options are the parsed flag values; validate is the fail-fast audit main
// runs before anything is measured, extracted so the flag contract is
// testable.
type options struct {
	scaleDiv, shards, repeats, profEach int
	benchOut, compare, metAddr          string
	sel                                 selection
	set                                 map[string]bool // flags given on the command line
	args                                []string        // arguments after the flags
}

// parse reads the command line args into options.
func parse(args []string) (options, error) {
	o := options{set: map[string]bool{}}
	fs := flag.NewFlagSet("regionbench", flag.ContinueOnError)
	fs.IntVar(&o.scaleDiv, "scale-div", 1, "divide every app's default workload by this factor")
	fs.IntVar(&o.sel.table, "table", 0, "render table N (1-3)")
	fs.IntVar(&o.sel.figure, "figure", 0, "render figure N (8-11)")
	fs.BoolVar(&o.sel.all, "all", false, "render every table and figure (default if nothing selected)")
	fs.BoolVar(&o.sel.ablation, "ablation", false, "render the ablation experiments")
	fs.BoolVar(&o.sel.related, "related", false, "render the related-work allocator comparison and trace tables")
	fs.BoolVar(&o.sel.json, "json", false, "emit the full measurement matrix as JSON")
	fs.BoolVar(&o.sel.verify, "verify", true, "cross-check checksums across environments first")
	fs.IntVar(&o.shards, "shards", 0, "run the whole-app throughput workload on N shards")
	fs.IntVar(&o.repeats, "repeats", 4, "copies of each app per throughput run")
	fs.StringVar(&o.benchOut, "bench-out", "", "write the benchmark report (micro + shard sweep) to this file")
	fs.StringVar(&o.compare, "compare", "", "compare a fresh benchmark run against this checked-in report; nonzero exit on any gated difference")
	fs.StringVar(&o.metAddr, "metrics-addr", "", "serve /metrics and /heap on this address during throughput runs")
	fs.IntVar(&o.profEach, "heap-profile-every", 64, "shard heap-profile cadence in tasks when -metrics-addr is set (0 disables)")
	err := fs.Parse(args)
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	o.args = fs.Args()
	return o, err
}

// throughput reports whether o selects one of the modes that run the shard
// engine: -shards, -bench-out or -compare.
func (o options) throughput() bool {
	return o.shards > 0 || o.benchOut != "" || o.compare != ""
}

// validate returns the first mistake in o, nil for a runnable flag set: a
// typo'd flag should fail in milliseconds, not after the paper-sized
// workloads, and a flag the selected mode would ignore is a mistake too.
func (o options) validate() error {
	// The flag package stops at the first argument that is not a flag, so
	// every flag after a stray argument would be dropped unread.
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected argument %q: regionbench takes flags only", o.args[0])
	}
	if o.scaleDiv < 1 {
		return fmt.Errorf("-scale-div must be at least 1, got %d", o.scaleDiv)
	}
	if o.sel.table < 0 || o.sel.table > 3 {
		return fmt.Errorf("tables are 1-3, got %d", o.sel.table)
	}
	if o.sel.figure != 0 && (o.sel.figure < 8 || o.sel.figure > 11) {
		return fmt.Errorf("figures are 8-11, got %d", o.sel.figure)
	}
	// -shards 0 is the "disabled" default; spelling it out explicitly is a
	// mistake worth naming, as is any negative count.
	if o.shards < 0 || (o.set["shards"] && o.shards == 0) {
		return fmt.Errorf("-shards must be at least 1, got %d", o.shards)
	}
	if o.repeats < 1 {
		return fmt.Errorf("-repeats must be at least 1, got %d", o.repeats)
	}
	if o.profEach < 0 {
		return fmt.Errorf("-heap-profile-every must be at least 0, got %d", o.profEach)
	}
	if o.compare != "" && o.benchOut != "" {
		return fmt.Errorf("-compare and -bench-out are mutually exclusive")
	}
	if o.shards > 0 && (o.benchOut != "" || o.compare != "") {
		return fmt.Errorf("-shards runs one throughput run; the report modes run their own sweep")
	}
	if !o.throughput() {
		for _, f := range []string{"repeats", "metrics-addr", "heap-profile-every"} {
			if o.set[f] {
				return fmt.Errorf("-%s requires -shards, -bench-out or -compare", f)
			}
		}
	}
	if o.set["heap-profile-every"] && o.metAddr == "" {
		return fmt.Errorf("-heap-profile-every requires -metrics-addr")
	}
	if o.throughput() {
		for _, f := range []string{"table", "figure", "all", "ablation", "related", "json", "verify"} {
			if o.set[f] {
				return fmt.Errorf("-%s selects what the paper's evaluation renders; -shards, -bench-out and -compare render none", f)
			}
		}
	}
	return nil
}

func main() {
	o, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag package has printed the error and the usage
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "regionbench:", err)
		os.Exit(2)
	}
	// Load (and validate) the old report before measuring anything, so a
	// missing file or wrong schema_version fails in milliseconds.
	var old bench.Leaves
	if o.compare != "" {
		if old, err = bench.LoadReport(o.compare); err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(2)
		}
	}

	w := os.Stdout
	if o.throughput() {
		runThroughput(w, o, old)
		return
	}
	if err := render(w, bench.NewSuite(o.scaleDiv), o.sel); err != nil {
		fmt.Fprintln(os.Stderr, "regionbench:", err)
		os.Exit(1)
	}
}

// runThroughput runs the mode o selects that drives the shard engine — the
// -compare gate against the old report's leaves, -bench-out, or one -shards
// run — with -metrics-addr serving live scrapes while it runs.
func runThroughput(w io.Writer, o options, old bench.Leaves) {
	failIf := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionbench:", err)
			os.Exit(1)
		}
	}
	opts, reg := metricsOpts(o.metAddr, o.profEach)
	if o.shards > 0 {
		r, err := bench.RunThroughputOpts(o.shards, o.scaleDiv, o.repeats, opts)
		failIf(err)
		bench.PrintThroughput(w, r)
		allocs, _ := reg.Snapshot().Counter("regions_core_allocs_total")
		fmt.Fprintf(w, "metrics: %d simulated allocs across the run\n", allocs)
		return
	}
	var f *os.File // opened first, so a bad path fails before the sweep
	if o.benchOut != "" {
		var err error
		f, err = os.Create(o.benchOut)
		failIf(err)
	}
	rep, err := bench.BuildBenchReportOpts(o.scaleDiv, o.repeats, opts)
	failIf(err)
	if f != nil {
		failIf(bench.EncodeBenchReport(f, rep))
		failIf(f.Close())
		fmt.Fprintf(w, "wrote %s\n", o.benchOut)
		return
	}
	cur, err := bench.LeavesOf(rep)
	failIf(err)
	fmt.Fprintf(w, "comparing against %s\n", o.compare)
	if regressions := bench.CompareReports(w, old, cur); len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "regionbench: %d gated difference(s):\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
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
