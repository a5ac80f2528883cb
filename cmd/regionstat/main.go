// Regionstat runs one of the paper's benchmark applications with the live
// metrics registry attached and reports where the cycles and bytes went.
// Standard output carries the final metrics snapshot (Prometheus text
// format, or with -json one JSON object) and, with -heap, a per-region heap
// profile taken the moment the workload returns — live bytes, allocator
// bookkeeping, free space, fragmentation, and the top allocation sites.
// Standard error carries the checksum line and the run report: the
// environment's own stats.Counters and the regions the runtime still holds
// at exit.
//
// Usage:
//
//	regionstat [-app cfrac] [-env safe] [-scale N] [-heap] [-top N]
//	           [-json] [-sample N] [-events N] [-jsonl FILE] [-chrome FILE]
//
// -sample N records every Nth allocation into the site profile. -top N
// bounds both the heap-profile table and the report's live-at-exit list (0
// shows all). Any of -events, -jsonl or -chrome attaches a trace ring of
// -events events: -jsonl writes its event log as JSON Lines, and -chrome a
// Chrome trace_event timeline with one row per region lifetime (load it in
// chrome://tracing or https://ui.perfetto.dev). The ring bounds only those
// files; the report is exact whatever it kept. Request-level serving spans
// are regionserve's (-explain -chrome FILE). docs/OBSERVABILITY.md
// documents every schema. Positional arguments are rejected.
//
// The registry is read once, after the run: its counters and gauges come
// from the environment's own counts, which only the goroutine running the
// app may read while it runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"regions/internal/apps/appkit"
	"regions/internal/bench"
	"regions/internal/core"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
)

func main() {
	var (
		app    = flag.String("app", "cfrac", "benchmark application to run")
		env    = flag.String("env", "safe", `environment: "safe", "unsafe", or "GC"`)
		scale  = flag.Int("scale", 1, "workload scale (the app's unit; see internal/bench)")
		heap   = flag.Bool("heap", false, "profile the heap when the workload returns")
		top    = flag.Int("top", 10, "regions shown in the heap-profile table and the live-at-exit list (0 shows all)")
		asJSON = flag.Bool("json", false, "emit one JSON object instead of Prometheus text / tables")
		sample = flag.Int("sample", 64, "record every Nth allocation in the site profile (0 disables)")
		events = flag.Int("events", 1<<20, "trace ring capacity in events (bounds -jsonl and -chrome, not the report)")
		jsonl  = flag.String("jsonl", "", "write the trace ring's event log as JSON Lines to this file")
		chrome = flag.String("chrome", "", "write a Chrome trace_event timeline to this file")
	)
	flag.Parse()

	ringOn := false
	flag.Visit(func(f *flag.Flag) {
		ringOn = ringOn || f.Name == "events" || f.Name == "jsonl" || f.Name == "chrome"
	})
	if args := flag.Args(); len(args) > 0 {
		fail(2, "unexpected argument %q: regionstat takes flags only", args[0])
	}
	if *scale < 1 {
		fail(2, "-scale must be at least 1, got %d", *scale)
	}
	if *top < 0 {
		fail(2, "-top must be at least 0, got %d", *top)
	}
	if *sample < 0 {
		fail(2, "-sample must be at least 0, got %d", *sample)
	}
	if *events < 1 {
		fail(2, "-events must be at least 1, got %d", *events)
	}
	var chosen *appkit.App
	for _, a := range bench.Apps() {
		if a.Name == *app {
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
	case *env == "GC" && *heap:
		fail(2, "env GC has no region runtime to profile")
	}

	// Open output files before running the workload, so a bad path fails in
	// milliseconds instead of after a long traced run.
	jsonlFile := createFile(*jsonl)
	chromeFile := createFile(*chrome)

	reg := metrics.NewRegistry()
	if *sample > 0 {
		reg.SetSiteSampling(*sample)
	}
	cfg := appkit.Config{Metrics: reg}
	var ring *trace.Tracer
	if ringOn {
		ring = trace.New(*events)
		cfg.Tracer = ring
	}
	r := runApp(*chosen, *env, *scale, cfg, *heap)

	if ring != nil {
		evs := ring.Events()
		if jsonlFile != nil {
			writeAndClose(jsonlFile, func(f *os.File) error { return trace.WriteJSONL(f, evs) })
			fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", len(evs), *jsonl)
		}
		if chromeFile != nil {
			writeAndClose(chromeFile, func(f *os.File) error { return trace.WriteChromeTrace(f, evs) })
			fmt.Fprintf(os.Stderr, "wrote Chrome timeline to %s\n", *chrome)
		}
	}
	fmt.Fprintf(os.Stderr, "app %s, env %s, scale %d: checksum %08x\n", *app, *env, *scale, r.sum)
	writeReport(os.Stderr, ring, r, *top)

	snap := reg.Snapshot()
	var err error
	if *asJSON {
		err = writeJSON(os.Stdout, snap, r.heap)
	} else if err = metrics.WritePrometheus(os.Stdout, snap); err == nil && r.heap != nil {
		fmt.Println()
		r.heap.WriteText(os.Stdout, *top)
	}
	if err != nil {
		fail(1, "%v", err)
	}
}

// appRun is what one app run leaves for the output: its checksum, the
// environment's counters and, under a region runtime, the regions the
// runtime still holds at exit and the heap profile taken as the workload
// returned, if one was asked for.
type appRun struct {
	sum      uint32
	counters *stats.Counters
	live     []*core.Region
	heap     *metrics.HeapReport
}

// runApp runs app at scale under env ("safe", "unsafe" or "GC"; GC needs a
// malloc variant) with cfg's tracer and registry attached. With heap it
// profiles the region heap before Finalize, while the workload's end-of-run
// state (still-live regions included) is intact.
func runApp(app appkit.App, env string, scale int, cfg appkit.Config, heap bool) appRun {
	if env == "GC" {
		e := appkit.NewMallocEnv(env, cfg)
		sum := app.Malloc(e, scale)
		e.Finalize()
		return appRun{sum: sum, counters: e.Counters()}
	}
	e := appkit.NewRegionEnv(env, cfg).(*appkit.CoreEnv)
	r := appRun{sum: app.Region(e, scale), counters: e.Counters()}
	if heap {
		prof, err := metrics.HeapProfile(e.Runtime())
		if err != nil {
			fail(1, "heap profile: %v", err)
		}
		prof.Origin = app.Name
		prof.CapturedCycle = r.counters.TotalCycles()
		r.heap = prof
	}
	e.Finalize()
	r.live = e.Runtime().LiveRegions()
	return r
}

// writeReport prints the run's report: the ring's own health when a ring
// was attached, then the simulator's counts, then up to top of the regions
// live at exit (0 lists them all).
func writeReport(w io.Writer, ring *trace.Tracer, r appRun, top int) {
	c := r.counters
	if ring != nil {
		s := ring.Stats()
		fmt.Fprintf(w, "trace ring: %d events emitted, %d kept, %d dropped\n", s.Emitted, s.Buffered, s.Dropped)
	}
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

// writeJSON writes the run's one JSON value: the metrics snapshot under
// "metrics" and, when the heap was profiled, the heap report under "heap".
func writeJSON(w io.Writer, snap *metrics.Snapshot, heap *metrics.HeapReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Metrics *metrics.Snapshot   `json:"metrics"`
		Heap    *metrics.HeapReport `json:"heap,omitempty"`
	}{snap, heap})
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
	fmt.Fprintf(os.Stderr, "regionstat: "+format+"\n", args...)
	os.Exit(code)
}
