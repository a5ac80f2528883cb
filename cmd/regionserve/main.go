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
// All latency figures are simulated cycles, so output is bit-identical for
// a given flag set and seed — `regionserve -sessions 2000 -seed 1` twice
// yields byte-for-byte the same report. The exit code is 0 whenever the run
// itself completes, even when load was shed (overload is an outcome, not an
// error); infrastructure failures (a panicking session, a corrupt heap at
// drain, an unwritable output file) exit 1. See docs/SERVING.md for the
// workload model.
//
// With -explain, -chrome and -jsonl export the run's request-level spans:
// a Chrome trace_event timeline (one process per shard, one row per
// request; load it in chrome://tracing or https://ui.perfetto.dev) and the
// raw span events as JSON Lines. The export ring is sized so it cannot
// drop events; see the "Spans" section of docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/serve"
	"regions/internal/trace"
)

// options are the parsed flag values; validate is the fail-fast audit main
// runs before anything serves, extracted so the flag contract is testable.
type options struct {
	sessions    int
	shards      int
	rate        float64
	queue       int
	burstEvery  uint64
	burstLen    uint64
	faultProb   float64
	deferDel    bool
	sweepBud    int
	sweepWater  int
	tenants     int
	resizeTo    int
	resizeAfter float64
	explain     bool
	topSlow     int
	chrome      string
	jsonl       string
	args        []string
}

// validate returns the first configuration mistake, nil for a runnable flag
// set. Every rule here is a run not worth starting: either the flag value
// is nonsense on its own, or it silently does nothing without a companion.
func (o options) validate() error {
	if o.sessions < 1 {
		return fmt.Errorf("-sessions must be at least 1, got %d", o.sessions)
	}
	if o.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", o.shards)
	}
	if o.rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %g", o.rate)
	}
	if o.queue < 1 {
		return fmt.Errorf("-queue must be at least 1, got %d", o.queue)
	}
	if o.burstEvery > 0 && (o.burstLen == 0 || o.burstLen >= o.burstEvery) {
		return fmt.Errorf("-burst-len must be in (0, -burst-every), got %d of %d", o.burstLen, o.burstEvery)
	}
	if o.faultProb < 0 || o.faultProb > 1 {
		return fmt.Errorf("-fault-prob must be in [0, 1], got %g", o.faultProb)
	}
	// Sweep tuning without deferred deletion would silently do nothing, and
	// a zero-or-negative budget would mean "sweep no pages per slice" —
	// both are configuration mistakes, not runs worth starting.
	if o.sweepBud != 0 && !o.deferDel {
		return fmt.Errorf("-sweep-budget requires -defer-delete")
	}
	if o.sweepWater != 0 && !o.deferDel {
		return fmt.Errorf("-sweep-highwater requires -defer-delete")
	}
	if o.deferDel && o.sweepBud < 0 {
		return fmt.Errorf("-sweep-budget must be at least 1 (or 0 for the default), got %d", o.sweepBud)
	}
	if o.deferDel && o.sweepWater < 0 {
		return fmt.Errorf("-sweep-highwater must be at least 1 (or 0 for the default), got %d", o.sweepWater)
	}
	if o.tenants < 0 {
		return fmt.Errorf("-tenants must not be negative, got %d", o.tenants)
	}
	// Elastic resharding only makes sense over tenant state, and only as a
	// grow: a -resize at or below -shards has nothing to rebalance onto.
	if o.resizeTo != 0 && o.tenants == 0 {
		return fmt.Errorf("-resize requires -tenants")
	}
	if o.resizeTo != 0 && o.resizeTo <= o.shards {
		return fmt.Errorf("-resize (%d) must exceed -shards (%d)", o.resizeTo, o.shards)
	}
	if o.resizeAfter != 0 && o.resizeTo == 0 {
		return fmt.Errorf("-resize-after requires -resize")
	}
	if o.resizeAfter < 0 || o.resizeAfter >= 1 {
		return fmt.Errorf("-resize-after must be in (0, 1), got %g", o.resizeAfter)
	}
	// -top-slow tunes the -explain table; alone it silently does nothing.
	if o.topSlow != 0 && !o.explain {
		return fmt.Errorf("-top-slow requires -explain")
	}
	if o.topSlow < 0 {
		return fmt.Errorf("-top-slow must be at least 1 (or 0 for the default), got %d", o.topSlow)
	}
	if o.chrome != "" && !o.explain {
		return fmt.Errorf("-chrome requires -explain")
	}
	if o.jsonl != "" && !o.explain {
		return fmt.Errorf("-jsonl requires -explain")
	}
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected argument %q: regionserve takes flags only", o.args[0])
	}
	return nil
}

func main() {
	var (
		sessions = flag.Int("sessions", 2000, "number of sessions to offer")
		seed     = flag.Int64("seed", 1, "seed for arrivals, profiles, and session weights")
		shards   = flag.Int("shards", 4, "number of shard runtimes serving")
		rate     = flag.Float64("rate", 700, "offered load in arrivals per simulated Mcycle")

		burstEvery = flag.Uint64("burst-every", 0, "burst period in simulated cycles (0 disables bursts)")
		burstLen   = flag.Uint64("burst-len", 0, "burst window length in simulated cycles")
		burstX     = flag.Float64("burst-x", 4, "arrival-rate multiplier inside burst windows")

		queue  = flag.Int("queue", 64, "per-shard admission queue cap; arrivals beyond it are shed")
		sloP99 = flag.Uint64("slo-p99", 1_000_000, "p99 latency target in simulated cycles for the SLO line")

		pageLimit = flag.Int("page-limit", 0, "cap each shard's simulated OS at N 4 KiB pages (0 = unlimited)")
		faultNth  = flag.Uint64("fault-nth", 0, "fail every Nth page-mapping call on each shard (0 disables)")
		faultProb = flag.Float64("fault-prob", 0, "fail each page-mapping call with this probability")
		faultSeed = flag.Int64("fault-seed", 1, "seed for -fault-prob draws")
		faultBud  = flag.Uint64("fault-budget", 0, "per-shard mapped-byte budget before mappings fail (0 = unlimited)")

		profile    = flag.String("profile", "", "serve only the named session profile (default: the weighted six-app mix)")
		noStrPool  = flag.Bool("no-strpool", false, "disable the pooled string allocator on every shard (A/B baseline: all string allocations bump)")
		deferDel   = flag.Bool("defer-delete", false, "deferred reclamation: deletes detach, pages are swept incrementally on idle cycles")
		sweepBud   = flag.Int("sweep-budget", 0, "pages per sweep slice (0 = runtime default; requires -defer-delete)")
		sweepWater = flag.Int("sweep-highwater", 0, "sweep-debt pages above which allocations pay a sweep tax (0 = runtime default; requires -defer-delete)")

		tenants     = flag.Int("tenants", 0, "tenant mode: sessions belong to N tenants with long-lived state regions (0 disables)")
		resizeTo    = flag.Int("resize", 0, "grow the engine live to N shards mid-run, migrating tenant regions (requires -tenants; must exceed -shards)")
		resizeAfter = flag.Float64("resize-after", 0, "fraction of sessions served before the resize barrier (default 0.5; requires -resize)")

		metAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) on this address during the run")
		jsonOut = flag.Bool("json", false, "emit the full result as JSON instead of the text report")
		explain = flag.Bool("explain", false, "record request-level spans and report per-phase latency attribution")
		topSlow = flag.Int("top-slow", 0, "slowest requests shown in the -explain breakdown (0 = default 5)")
		chrome  = flag.String("chrome", "", "write the -explain spans as a Chrome trace_event timeline to this file")
		jsonl   = flag.String("jsonl", "", "write the -explain span events as JSON Lines to this file")
	)
	flag.Parse()

	opts := options{
		sessions:    *sessions,
		shards:      *shards,
		rate:        *rate,
		queue:       *queue,
		burstEvery:  *burstEvery,
		burstLen:    *burstLen,
		faultProb:   *faultProb,
		deferDel:    *deferDel,
		sweepBud:    *sweepBud,
		sweepWater:  *sweepWater,
		tenants:     *tenants,
		resizeTo:    *resizeTo,
		resizeAfter: *resizeAfter,
		explain:     *explain,
		topSlow:     *topSlow,
		chrome:      *chrome,
		jsonl:       *jsonl,
		args:        flag.Args(),
	}
	if err := opts.validate(); err != nil {
		fail(2, "%v", err)
	}

	cfg := serve.Config{
		Sessions:    *sessions,
		Seed:        *seed,
		Shards:      *shards,
		Rate:        *rate,
		BurstEvery:  *burstEvery,
		BurstLen:    *burstLen,
		BurstFactor: *burstX,
		MaxQueue:    *queue,
		SLOP99:      *sloP99,
		PageLimit:   *pageLimit,

		Profile:        *profile,
		NoStrPool:      *noStrPool,
		DeferredDelete: *deferDel,
		SweepBudget:    *sweepBud,
		SweepHighWater: *sweepWater,

		Tenants:     *tenants,
		ResizeTo:    *resizeTo,
		ResizeAfter: *resizeAfter,

		Spans:   *explain,
		TopSlow: *topSlow,
	}
	if *faultNth > 0 || *faultProb > 0 || *faultBud > 0 {
		cfg.FaultPlan = &mem.FaultPlan{
			FailNth:    *faultNth,
			FailProb:   *faultProb,
			Seed:       *faultSeed,
			ByteBudget: *faultBud,
		}
	}
	if *metAddr != "" {
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(reg))
		srv := &http.Server{Addr: *metAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "regionserve: metrics server:", err)
			}
		}()
		fmt.Printf("serving /metrics on %s\n", *metAddr)
	}

	// Open the span outputs before serving, so a bad path fails at once.
	chromeFile, jsonlFile := createFile(*chrome), createFile(*jsonl)
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
	if *jsonOut {
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
