// Regiontrace runs one of the paper's benchmark applications with a tracer
// attached and renders the run: a JSONL event log, a Chrome trace_event
// timeline with one row per region lifetime (load it in chrome://tracing or
// https://ui.perfetto.dev), and a text report. The report's totals and
// peaks are the environment's own stats.Counters, and the regions it lists
// as live at exit come from the runtime, so it is exact whatever the ring
// buffer kept: -events bounds only the log and the timeline.
// docs/OBSERVABILITY.md documents the event schema and walks through this
// tool's output. Request-level serving spans are regionserve's
// (-explain -chrome FILE).
//
// Usage:
//
//	regiontrace [-app cfrac] [-env safe] [-scale N] [-events N]
//	            [-jsonl FILE] [-chrome FILE] [-top N]
//
// Positional arguments are rejected. The report goes to standard output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"regions/internal/apps/appkit"
	"regions/internal/bench"
	"regions/internal/core"
	"regions/internal/stats"
	"regions/internal/trace"
)

func main() {
	var (
		app    = flag.String("app", "cfrac", "benchmark application to run")
		env    = flag.String("env", "safe", `environment: "safe", "unsafe", or "GC"`)
		scale  = flag.Int("scale", 1, "workload scale (the app's unit; see internal/bench)")
		events = flag.Int("events", 1<<20, "ring buffer capacity in events (bounds -jsonl and -chrome, not the report)")
		jsonl  = flag.String("jsonl", "", "write the event log as JSON Lines to this file")
		chrome = flag.String("chrome", "", "write a Chrome trace_event timeline to this file")
		top    = flag.Int("top", 10, "regions live at exit listed in the report (0 lists all)")
	)
	flag.Parse()

	if args := flag.Args(); len(args) > 0 {
		fail(2, "unexpected argument %q: regiontrace takes flags only", args[0])
	}
	if *events < 1 {
		fail(2, "-events must be at least 1, got %d", *events)
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
	switch {
	case *env != "safe" && *env != "unsafe" && *env != "GC":
		fail(2, "unknown env %q (want safe, unsafe, or GC)", *env)
	case *env == "GC" && chosen.Malloc == nil:
		fail(2, "app %q has no malloc variant to run under GC", *app)
	}

	// Open output files before running the workload, so a bad path fails in
	// milliseconds instead of after a long traced run.
	jsonlFile := createFile(*jsonl)
	chromeFile := createFile(*chrome)

	t := trace.New(*events)
	r := runApp(*chosen, *env, *scale, t)

	evs := t.Events()
	if jsonlFile != nil {
		writeAndClose(jsonlFile, func(f *os.File) error { return trace.WriteJSONL(f, evs) })
		fmt.Printf("wrote %d events to %s\n", len(evs), *jsonl)
	}
	if chromeFile != nil {
		writeAndClose(chromeFile, func(f *os.File) error { return trace.WriteChromeTrace(f, evs) })
		fmt.Printf("wrote Chrome timeline to %s\n", *chrome)
	}

	fmt.Printf("app %s, env %s, scale %d: checksum %08x\n", *app, *env, *scale, r.sum)
	writeReport(os.Stdout, t.Stats(), r, *top)
}

// appRun is what one app run leaves for the report: its checksum, the
// environment's counters and, under a region runtime, the regions the
// runtime still holds at exit.
type appRun struct {
	sum      uint32
	counters *stats.Counters
	live     []*core.Region
}

// runApp runs app at scale under env ("safe", "unsafe" or "GC"; GC needs a
// malloc variant) with t attached, nil for an untraced run.
func runApp(app appkit.App, env string, scale int, t *trace.Tracer) appRun {
	cfg := appkit.Config{Tracer: t}
	if env == "GC" {
		e := appkit.NewMallocEnv(env, cfg)
		sum := app.Malloc(e, scale)
		e.Finalize()
		return appRun{sum: sum, counters: e.Counters()}
	}
	e := appkit.NewRegionEnv(env, cfg).(*appkit.CoreEnv)
	sum := app.Region(e, scale)
	e.Finalize()
	return appRun{sum: sum, counters: e.Counters(), live: e.Runtime().LiveRegions()}
}

// writeReport prints the run's report: the ring's own health, then the
// simulator's counts, then up to top of the regions live at exit (0 lists
// them all).
func writeReport(w io.Writer, ring trace.Stats, r appRun, top int) {
	c := r.counters
	fmt.Fprintf(w, "trace ring: %d events emitted, %d kept, %d dropped\n",
		ring.Emitted, ring.Buffered, ring.Dropped)
	fmt.Fprintf(w, "cycles: %d total, %d memory management\n", c.TotalCycles(), c.MemCycles())
	fmt.Fprintf(w, "allocations: %d objects, %d bytes; %d frees\n", c.Allocs, c.BytesRequested, c.FreeCalls)
	fmt.Fprintf(w, "regions: %d created, %d deleted, %d not deleted; %d failed deletes\n",
		c.RegionsCreated, c.RegionsDeleted, c.LiveRegions, c.DeleteFails)
	fmt.Fprintf(w, "peaks: %d live regions, %d live bytes, %d bytes in one region\n",
		c.MaxLiveRegions, c.MaxLiveBytes, c.MaxRegionBytes)
	fmt.Fprintf(w, "barriers: %d global, %d region (%d sameregion)\n",
		c.Barriers.Global, c.Barriers.Region, c.Barriers.SameRegion)
	fmt.Fprintf(w, "stack: %d frame scans, %d unscans; cleanups: %d calls, %d destroy calls; gc collections: %d\n",
		c.FramesScanned, c.FramesUnscanned, c.CleanupCalls, c.DestroyCalls, c.GCCollections)

	fmt.Fprintf(w, "live at exit: %d regions\n", len(r.live))
	n := len(r.live)
	if top > 0 && n > top {
		n = top
	}
	for _, reg := range r.live[:n] {
		fmt.Fprintf(w, "  %v\n", reg)
	}
	if n < len(r.live) {
		fmt.Fprintf(w, "  ... and %d more\n", len(r.live)-n)
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
