// Regionserve runs the multi-tenant serving simulator: a seeded open-loop
// Poisson arrival process (with optional burst phases) feeding N concurrent
// sessions onto the sharded region engine. Each session binds one or more
// regions for a request lifetime, runs a parse/work/delete lifecycle drawn
// from the six benchmark apps' allocation profiles, and reports its latency
// in simulated cycles. The run ends with p50/p99/p999, shed/queued tallies,
// and an SLO pass/fail line.
//
// Usage:
//
//	regionserve -sessions 2000 -seed 1
//	regionserve -sessions 5000 -rate 64 -burst-every 2000000 -burst-len 400000
//	regionserve -sessions 2000 -page-limit 96        # overload: shed via ErrOverload
//	regionserve -sessions 2000 -metrics-addr :8080   # live /metrics while serving
//	regionserve -sessions 2000 -profile bulk -defer-delete   # deferred reclamation
//	regionserve -sessions 2000 -profile strheavy             # pooled buffer recycling
//	regionserve -sessions 2000 -profile strheavy -no-strpool # its bump-only baseline
//	regionserve -sessions 2400 -shards 2 -tenants 8 -resize 4  # live shard grow
//	regionserve -sessions 600 -explain -chrome spans.json -jsonl spans.jsonl
//
// Each serving flag sets the serve.Config field its usage line names, and
// serve.Config.Validate is the rule set they are checked by; the CLI adds
// only its own rules (no stray argument, no typed 0 where the field reads 0
// as its default, no -chrome or -jsonl without -explain). A refused flag
// set exits 2 before an output file is opened or a session runs.
//
// All latency figures are simulated cycles, so output is bit-identical for
// a given flag set and seed — `regionserve -sessions 2000 -seed 1` twice
// yields byte-for-byte the same report. The exit code is 0 whenever the run
// itself completes, even when load was shed (overload is an outcome, not an
// error); infrastructure failures (a panicking session, a corrupt heap at
// drain, an unwritable output file, a -metrics-addr that cannot be bound)
// exit 1. With -metrics-addr the listener is bound before anything runs,
// and the "serving /metrics on" line prints the bound address: with port 0,
// the port the system chose. See docs/SERVING.md for the workload model.
//
// With -explain, -chrome and -jsonl export the run's request-level spans:
// a Chrome trace_event timeline (one process per shard, one row per
// request; load it in chrome://tracing or https://ui.perfetto.dev) and the
// raw span events as JSON Lines. The export ring is sized so it cannot
// drop events; see the "Spans" section of docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/serve"
	"regions/internal/trace"
)

// options are what parse read from the command line: the serving run's
// serve.Config and the CLI's own values.
type options struct {
	cfg           serve.Config
	jsonOut       bool
	metAddr       string
	chrome, jsonl string
	args          []string // arguments after the flags
}

// parse reads the command line args into options. Each serving flag sets
// the serve.Config field its usage line names; the fault flags set the
// fields of a FaultPlan that is dropped when it would inject nothing.
func parse(args []string) (options, error) {
	plan := &mem.FaultPlan{}
	o := options{cfg: serve.Config{FaultPlan: plan}}
	c := &o.cfg
	fs := flag.NewFlagSet("regionserve", flag.ContinueOnError)
	fs.IntVar(&c.Sessions, "sessions", 2000, "number of sessions to offer (Config.Sessions)")
	fs.Int64Var(&c.Seed, "seed", 1, "seed for arrivals, profiles, and session weights (Config.Seed)")
	fs.IntVar(&c.Shards, "shards", 4, "number of shard runtimes serving (Config.Shards)")
	fs.Float64Var(&c.Rate, "rate", 700, "offered load in arrivals per simulated Mcycle (Config.Rate)")

	fs.Uint64Var(&c.BurstEvery, "burst-every", 0, "burst period in simulated cycles, 0 disables bursts (Config.BurstEvery)")
	fs.Uint64Var(&c.BurstLen, "burst-len", 0, "burst window length in simulated cycles (Config.BurstLen)")
	fs.Float64Var(&c.BurstFactor, "burst-x", 4, "arrival-rate multiplier inside burst windows (Config.BurstFactor)")

	fs.IntVar(&c.MaxQueue, "queue", 64, "per-shard admission queue cap; arrivals beyond it are shed (Config.MaxQueue)")
	fs.Uint64Var(&c.SLOP99, "slo-p99", 1_000_000, "p99 latency target in simulated cycles for the SLO line (Config.SLOP99)")

	fs.IntVar(&c.PageLimit, "page-limit", 0, "cap each shard's simulated OS at N 4 KiB pages, 0 = unlimited (Config.PageLimit)")
	fs.Uint64Var(&plan.FailNth, "fault-nth", 0, "fail every Nth page-mapping call on each shard, 0 disables (Config.FaultPlan.FailNth)")
	fs.Float64Var(&plan.FailProb, "fault-prob", 0, "fail each page-mapping call with this probability (Config.FaultPlan.FailProb)")
	fs.Int64Var(&plan.Seed, "fault-seed", 1, "seed for -fault-prob draws (Config.FaultPlan.Seed)")
	fs.Uint64Var(&plan.ByteBudget, "fault-budget", 0, "per-shard mapped-byte budget before mappings fail, 0 = unlimited (Config.FaultPlan.ByteBudget)")

	fs.StringVar(&c.Profile, "profile", "", "serve only the named session profile; default the weighted six-app mix (Config.Profile)")
	fs.BoolVar(&c.NoStrPool, "no-strpool", false, "disable the pooled string allocator on every shard, the A/B baseline where all string allocations bump (Config.NoStrPool)")
	fs.BoolVar(&c.DeferredDelete, "defer-delete", false, "deferred reclamation: deletes detach, pages are swept incrementally on idle cycles (Config.DeferredDelete)")
	fs.IntVar(&c.SweepBudget, "sweep-budget", 0, "pages per sweep slice, 0 = runtime default (Config.SweepBudget)")
	fs.IntVar(&c.SweepHighWater, "sweep-highwater", 0, "sweep-debt pages above which allocations pay a sweep tax, 0 = runtime default (Config.SweepHighWater)")

	fs.IntVar(&c.Tenants, "tenants", 0, "tenant mode: sessions belong to N tenants with long-lived state regions, 0 disables (Config.Tenants)")
	fs.IntVar(&c.ResizeTo, "resize", 0, "grow the engine live to N shards mid-run, migrating tenant regions (Config.ResizeTo)")
	fs.Float64Var(&c.ResizeAfter, "resize-after", 0, "fraction of sessions served before the resize barrier, 0 = 0.5 (Config.ResizeAfter)")

	fs.StringVar(&o.metAddr, "metrics-addr", "", "serve GET /metrics (Prometheus text format) on this address during the run")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the full result as JSON instead of the text report")
	fs.BoolVar(&c.Spans, "explain", false, "record request-level spans and report per-phase latency attribution (Config.Spans)")
	fs.IntVar(&c.TopSlow, "top-slow", 0, "slowest requests shown in the -explain breakdown, 0 = 5 (Config.TopSlow)")
	fs.StringVar(&o.chrome, "chrome", "", "write the -explain spans as a Chrome trace_event timeline to this file")
	fs.StringVar(&o.jsonl, "jsonl", "", "write the -explain span events as JSON Lines to this file")
	err := fs.Parse(args)
	o.args = fs.Args()
	if *plan == (mem.FaultPlan{Seed: plan.Seed}) {
		c.FaultPlan = nil
	}
	return o, err
}

// validate returns the first mistake in o, nil for a runnable command line:
// the CLI's own rules, then serve.Config.Validate, so a mistake fails in
// milliseconds, before an output file is opened or a session runs.
func (o options) validate() error {
	// The flag package stops at the first argument that is not a flag, so
	// every flag after a stray argument would be dropped unread.
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected argument %q: regionserve takes flags only", o.args[0])
	}
	// serve.Config reads 0 in these fields as "use the default", and no
	// flag defaults to 0, so a 0 here was typed and would silently run as
	// the default.
	for _, f := range []struct {
		flag, field string
		zero        bool
	}{
		{"shards", "Shards", o.cfg.Shards == 0},
		{"rate", "Rate", o.cfg.Rate == 0},
		{"queue", "MaxQueue", o.cfg.MaxQueue == 0},
		{"slo-p99", "SLOP99", o.cfg.SLOP99 == 0},
		{"burst-x", "BurstFactor", o.cfg.BurstFactor == 0},
	} {
		if f.zero {
			return fmt.Errorf("-%s must not be 0: Config.%s reads 0 as its default", f.flag, f.field)
		}
	}
	if o.chrome != "" && !o.cfg.Spans {
		return fmt.Errorf("-chrome requires -explain")
	}
	if o.jsonl != "" && !o.cfg.Spans {
		return fmt.Errorf("-jsonl requires -explain")
	}
	return o.cfg.Validate()
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
		fail(2, "%v", err)
	}
	cfg := o.cfg
	if o.metAddr != "" {
		cfg.Metrics = metrics.NewRegistry()
		ln, err := metrics.Serve(o.metAddr, cfg.Metrics, nil)
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("serving /metrics on %s\n", ln.Addr())
	}

	// Open the span outputs before serving, so a bad path fails at once.
	chromeFile, jsonlFile := createFile(o.chrome), createFile(o.jsonl)
	if chromeFile != nil || jsonlFile != nil {
		// Run writes at most 24 span events per session, 4 per migration and
		// 2 per shard (serve.Config.SpanTracer).
		cfg.SpanTracer = trace.New(24*cfg.Sessions + 4*cfg.Tenants + 2*max(cfg.Shards, cfg.ResizeTo))
	}

	res, err := serve.Run(cfg)
	if err != nil {
		fail(1, "%v", err)
	}
	if t := cfg.SpanTracer; t != nil {
		if d := t.Stats().Dropped; d > 0 {
			fail(1, "the span ring dropped %d of %d events", d, t.Stats().Emitted)
		}
		evs := t.Events()
		writeAndClose(chromeFile, func(f *os.File) error { return trace.WriteSpanChromeTrace(f, evs) })
		writeAndClose(jsonlFile, func(f *os.File) error { return trace.WriteJSONL(f, evs) })
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(1, "%v", err)
		}
		return
	}
	printReport(res)
}

// printReport renders the deterministic text report. Every number is a
// session count or a simulated-cycle figure — nothing wall-clock — so two
// runs with the same flags produce byte-identical output.
func printReport(res *serve.Result) {
	fmt.Printf("regionserve: %d sessions, %d shards, seed %d, %g arrivals/Mcycle\n",
		res.Sessions, res.Shards, res.Seed, res.Rate)
	fmt.Printf("admitted %d (queued %d)  completed %d  shed %d (queue %d, oom %d)\n",
		res.Admitted, res.Queued, res.Completed, res.ShedQueue+res.ShedOOM,
		res.ShedQueue, res.ShedOOM)
	if res.Leaked > 0 {
		fmt.Printf("leaked regions: %d (deletion refused at abort; reclaimed at shard teardown)\n", res.Leaked)
	}
	fmt.Printf("latency (sim cycles): p50 %d  p99 %d  p999 %d  max %d  mean %d\n",
		res.P50, res.P99, res.P999, res.MaxCycles, res.Mean)
	fmt.Printf("max queue depth %d  makespan %d sim cycles  checksum %08x\n",
		res.MaxQueueDepth, res.MakespanCycles, res.Checksum)
	if res.StrNew+res.StrReuse > 0 {
		fmt.Printf("string pool: %d new  %d reused (ratio %.3f)  %d big  %d freed\n",
			res.StrNew, res.StrReuse, res.StrReuseRatio, res.StrBig, res.StrFreed)
	}
	if res.DeferredDelete {
		fmt.Printf("sweep: peak debt %d pages  swept %d pages  reclamation lag %d sim cycles\n",
			res.SweepDebtPeakPages, res.SweptPages, res.ReclamationLagCycles)
	}
	if res.Tenants > 0 {
		fmt.Printf("tenants %d  migrations %d (%d pages)  tenant checksum %08x\n",
			res.Tenants, res.Migrations, res.MigratedPages, res.TenantChecksum)
	}
	if res.ResizeTo > 0 {
		fmt.Printf("resize %d -> %d shards  busy max/min: phase1 %.3f  phase2 %.3f\n",
			res.Shards, res.ResizeTo, res.Phase1BusyRatio, res.Phase2BusyRatio)
	}
	if res.FirstOverload != nil {
		fmt.Printf("first overload: %v\n", res.FirstOverload)
	}
	verdict := "PASS"
	if !res.SLOPass {
		verdict = "FAIL"
	}
	fmt.Printf("SLO: p99 %d <= %d sim cycles: %s\n", res.P99, res.SLOTarget, verdict)
	if res.Spans != nil {
		printExplain(res.Spans)
	}
}

// printExplain renders the -explain span report: the per-phase attribution
// table (exact order-statistic quantiles over completed requests) and the
// slowest requests with their phase breakdowns. The conservation property —
// each breakdown sums exactly to the request's latency — is enforced by the
// serve package before the report exists, so these numbers account for every
// cycle of every latency with no "other" bucket.
func printExplain(rep *serve.SpanReport) {
	fmt.Printf("phase attribution (%d requests, sim cycles):\n", rep.Requests)
	fmt.Printf("  %-12s %12s %10s %10s %10s %10s\n", "phase", "total", "p50", "p99", "p999", "max")
	for _, p := range rep.Phases {
		if p.TotalCycles == 0 && p.Max == 0 {
			continue
		}
		fmt.Printf("  %-12s %12d %10d %10d %10d %10d\n",
			p.Phase, p.TotalCycles, p.P50, p.P99, p.P999, p.Max)
	}
	if len(rep.SlowRequests) > 0 {
		fmt.Printf("slowest requests:\n")
		for i, sr := range rep.SlowRequests {
			fmt.Printf("  #%d session %d shard %d: %d cycles", i+1, sr.Session, sr.Shard, sr.LatencyCycles)
			sep := " ["
			for _, k := range trace.SpanKinds() {
				if c, ok := sr.PhaseCycles[k.String()]; ok && c > 0 {
					fmt.Printf("%s%s %d", sep, k, c)
					sep = " "
				}
			}
			if sep == " " {
				fmt.Print("]")
			}
			fmt.Println()
		}
	}
}

// createFile opens path for writing, or exits with a clear message; "" is
// no file.
func createFile(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fail(1, "cannot write output: %v", err)
	}
	return f
}

// writeAndClose writes f with write and closes it; a nil f is no file.
func writeAndClose(f *os.File, write func(*os.File) error) {
	if f == nil {
		return
	}
	err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(1, "%v", err)
	}
}

func fail(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "regionserve: "+format+"\n", args...)
	os.Exit(code)
}
