// Regiontrace runs a traced workload and renders what the ring buffer
// caught. It has two modes:
//
// App mode (the default) traces one of the paper's benchmark applications
// event by event: a JSONL event log, a Chrome trace_event timeline (load it
// in chrome://tracing or https://ui.perfetto.dev), and a per-region lifetime
// report (birth/death cycles, allocation volume, failed deletions, leak
// candidates). docs/OBSERVABILITY.md documents the event schema and walks
// through this tool's output.
//
// Span mode (-spans) traces the serving simulator at request granularity
// instead: every request becomes a row of phase spans (queue, parse, work,
// delete, sweep) on its shard's track, and -chrome writes a timeline with
// one process per shard. See the "Spans" section of docs/OBSERVABILITY.md.
//
// Usage:
//
//	regiontrace [-app cfrac] [-env safe] [-scale N] [-events N]
//	            [-jsonl FILE] [-chrome FILE] [-top N]
//	regiontrace -spans [-sessions N] [-shards N] [-rate R] [-seed S]
//	            [-defer-delete] [-events N] [-jsonl FILE] [-chrome FILE]
//
// Flags from the wrong mode are usage errors, not silent no-ops: -spans
// rejects explicitly-set app-mode flags (-app, -env, -scale, -top) and the
// serve knobs reject runs without -spans. Positional arguments are always
// rejected. The per-region (or per-request) report goes to standard output.
package main

import (
	"flag"
	"fmt"
	"os"

	"regions/internal/apps/appkit"
	"regions/internal/bench"
	"regions/internal/serve"
	"regions/internal/trace"
)

// modeError is the fail-fast audit of the two-mode flag contract: set holds
// the flag names the user explicitly passed (from flag.Visit), spans says
// which mode they asked for, args is whatever was left after flags. It
// returns the first usage mistake, nil for a runnable invocation.
func modeError(set map[string]bool, spans bool, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q: regiontrace takes flags only", args[0])
	}
	appOnly := []string{"app", "env", "scale", "top"}
	serveOnly := []string{"sessions", "shards", "rate", "seed", "defer-delete"}
	if spans {
		for _, f := range appOnly {
			if set[f] {
				return fmt.Errorf("-%s is app-mode only and does nothing under -spans", f)
			}
		}
		return nil
	}
	for _, f := range serveOnly {
		if set[f] {
			return fmt.Errorf("-%s requires -spans", f)
		}
	}
	return nil
}

func main() {
	var (
		app    = flag.String("app", "cfrac", "benchmark application to run")
		env    = flag.String("env", "safe", `environment: "safe", "unsafe", or "GC"`)
		scale  = flag.Int("scale", 1, "workload scale (the app's unit; see internal/bench)")
		events = flag.Int("events", 1<<20, "ring buffer capacity in events")
		jsonl  = flag.String("jsonl", "", "write the event log as JSON Lines to this file")
		chrome = flag.String("chrome", "", "write a Chrome trace_event timeline to this file")
		top    = flag.Int("top", 10, "regions shown in the per-region table")

		spans    = flag.Bool("spans", false, "trace the serving simulator at request-span granularity instead of an app")
		sessions = flag.Int("sessions", 600, "sessions to serve (requires -spans)")
		shards   = flag.Int("shards", 4, "shard runtimes serving (requires -spans)")
		rate     = flag.Float64("rate", 700, "arrivals per simulated Mcycle (requires -spans)")
		seed     = flag.Int64("seed", 1, "arrival/profile seed (requires -spans)")
		deferDel = flag.Bool("defer-delete", false, "serve with deferred reclamation (requires -spans)")
	)
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := modeError(explicit, *spans, flag.Args()); err != nil {
		fail(2, "%v", err)
	}
	if *events < 1 {
		fail(2, "-events must be at least 1, got %d", *events)
	}

	if *spans {
		if *sessions < 1 {
			fail(2, "-sessions must be at least 1, got %d", *sessions)
		}
		if *shards < 1 {
			fail(2, "-shards must be at least 1, got %d", *shards)
		}
		if *rate <= 0 {
			fail(2, "-rate must be positive, got %g", *rate)
		}
		runSpans(*sessions, *shards, *rate, *seed, *deferDel, *events, *jsonl, *chrome)
		return
	}

	if *scale < 1 {
		fail(2, "-scale must be at least 1, got %d", *scale)
	}
	var chosen *appkit.App
	for _, a := range bench.Apps() {
		if a.Name == *app {
			a := a
			chosen = &a
			break
		}
	}
	if chosen == nil {
		msg := fmt.Sprintf("unknown app %q; have:", *app)
		for _, a := range bench.Apps() {
			msg += " " + a.Name
		}
		fail(2, "%s", msg)
	}

	// Open output files before running the workload, so a bad path fails in
	// milliseconds instead of after a long traced run.
	jsonlFile := createFile(*jsonl)
	chromeFile := createFile(*chrome)

	t := trace.New(*events)
	cfg := appkit.Config{Tracer: t}
	var sum uint32
	switch *env {
	case "safe", "unsafe":
		e := appkit.NewRegionEnv(*env, cfg)
		sum = chosen.Region(e, *scale)
		e.Finalize()
	case "GC":
		if chosen.Malloc == nil {
			fail(2, "app %q has no malloc variant to run under GC", *app)
		}
		e := appkit.NewMallocEnv("GC", cfg)
		sum = chosen.Malloc(e, *scale)
		e.Finalize()
	default:
		fail(2, "unknown env %q (want safe, unsafe, or GC)", *env)
	}

	evs := t.Events()
	if jsonlFile != nil {
		writeAndClose(jsonlFile, func(f *os.File) error { return trace.WriteJSONL(f, evs) })
		fmt.Printf("wrote %d events to %s\n", len(evs), *jsonl)
	}
	if chromeFile != nil {
		writeAndClose(chromeFile, func(f *os.File) error { return trace.WriteChromeTrace(f, evs) })
		fmt.Printf("wrote Chrome timeline to %s\n", *chrome)
	}

	fmt.Printf("app %s, env %s, scale %d: checksum %08x\n", *app, *env, *scale, sum)
	trace.BuildProfile(evs, t.Dropped()).WriteReport(os.Stdout, *top)
}

// runSpans is the -spans mode: serve a seeded workload with an external span
// ring attached, then render the request-level stream.
func runSpans(sessions, shards int, rate float64, seed int64, deferDel bool, events int, jsonl, chrome string) {
	jsonlFile := createFile(jsonl)
	chromeFile := createFile(chrome)

	tr := trace.New(events)
	res, err := serve.Run(serve.Config{
		Sessions:       sessions,
		Shards:         shards,
		Rate:           rate,
		Seed:           seed,
		DeferredDelete: deferDel,
		SpanTracer:     tr,
	})
	if err != nil {
		fail(1, "%v", err)
	}

	evs := tr.Events()
	if jsonlFile != nil {
		writeAndClose(jsonlFile, func(f *os.File) error { return trace.WriteJSONL(f, evs) })
		fmt.Printf("wrote %d events to %s\n", len(evs), jsonl)
	}
	if chromeFile != nil {
		writeAndClose(chromeFile, func(f *os.File) error { return trace.WriteSpanChromeTrace(f, evs) })
		fmt.Printf("wrote span timeline to %s\n", chrome)
	}

	rep := res.Spans
	fmt.Printf("spans: %d sessions, %d shards, seed %d: %d requests, %d events, checksum %08x\n",
		sessions, shards, seed, rep.Requests, len(evs), res.Checksum)
	if d := tr.Stats().Dropped; d > 0 {
		fmt.Printf("span ring dropped %d events; grow -events for a full timeline (the table counts every request)\n", d)
	}
	fmt.Printf("  %-12s %12s %10s %10s %10s\n", "phase", "total", "p50", "p99", "max")
	for _, p := range rep.Phases {
		if p.TotalCycles == 0 && p.Max == 0 {
			continue
		}
		fmt.Printf("  %-12s %12d %10d %10d %10d\n", p.Phase, p.TotalCycles, p.P50, p.P99, p.Max)
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

func writeAndClose(f *os.File, write func(*os.File) error) {
	err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(1, "%v", err)
	}
}

func fail(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "regiontrace: "+format+"\n", args...)
	os.Exit(code)
}
