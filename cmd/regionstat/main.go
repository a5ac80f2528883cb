// Regionstat runs one of the paper's benchmark applications with the live
// metrics registry attached and reports where the cycles and bytes went:
// the final metrics snapshot (Prometheus text format or JSON) and, with
// -heap, a per-region heap profile taken the moment the workload returns —
// live bytes, allocator bookkeeping, free space, fragmentation, and the
// top allocation sites. docs/OBSERVABILITY.md documents both schemas.
//
// Usage:
//
//	regionstat [-app cfrac] [-env safe] [-scale N] [-heap] [-top N]
//	           [-json] [-sample N]
//
// -sample N records every Nth allocation into the site profile. The
// registry is read once, after the run: its counters and gauges come from
// the runtime's own counts, which only the goroutine running the app may
// read while it runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"regions/internal/apps/appkit"
	"regions/internal/bench"
	"regions/internal/metrics"
)

func main() {
	var (
		app    = flag.String("app", "cfrac", "benchmark application to run")
		env    = flag.String("env", "safe", `environment: "safe" or "unsafe"`)
		scale  = flag.Int("scale", 1, "workload scale (the app's unit; see internal/bench)")
		heap   = flag.Bool("heap", false, "profile the heap when the workload returns")
		top    = flag.Int("top", 10, "regions shown in the heap-profile table")
		asJSON = flag.Bool("json", false, "emit JSON instead of Prometheus text / tables")
		sample = flag.Int("sample", 64, "record every Nth allocation in the site profile (0 disables)")
	)
	flag.Parse()

	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "regionstat: -scale must be at least 1, got %d\n", *scale)
		os.Exit(2)
	}
	if *env != "safe" && *env != "unsafe" {
		fmt.Fprintf(os.Stderr, "regionstat: unknown env %q (want safe or unsafe)\n", *env)
		os.Exit(2)
	}
	if *top < 1 {
		fmt.Fprintf(os.Stderr, "regionstat: -top must be at least 1, got %d\n", *top)
		os.Exit(2)
	}
	if *sample < 0 {
		fmt.Fprintf(os.Stderr, "regionstat: -sample must be at least 0, got %d\n", *sample)
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "regionstat: unknown app %q; have:", *app)
		for _, a := range bench.Apps() {
			fmt.Fprintf(os.Stderr, " %s", a.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	if *sample > 0 {
		reg.SetSiteSampling(*sample)
	}

	e := appkit.NewRegionEnv(*env, appkit.Config{Metrics: reg})
	sum := chosen.Region(e, *scale)

	// Profile before Finalize, while the workload's end-of-run heap state
	// (still-live regions included) is intact.
	var prof *metrics.HeapReport
	if *heap {
		rt := appkit.RuntimeOf(e)
		if rt == nil {
			fmt.Fprintf(os.Stderr, "regionstat: env %q has no real runtime to profile\n", *env)
			os.Exit(2)
		}
		var err error
		prof, err = metrics.HeapProfile(rt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "regionstat: heap profile:", err)
			os.Exit(1)
		}
		prof.Origin = *app
		prof.CapturedCycle = e.Counters().TotalCycles()
	}
	e.Finalize()

	fmt.Fprintf(os.Stderr, "app %s, env %s, scale %d: checksum %08x\n", *app, *env, *scale, sum)
	snap := reg.Snapshot()
	var err error
	if *asJSON {
		err = metrics.WriteJSON(os.Stdout, snap)
	} else {
		err = metrics.WritePrometheus(os.Stdout, snap)
	}
	if err == nil && prof != nil {
		if *asJSON {
			err = prof.WriteJSON(os.Stdout)
		} else {
			fmt.Println()
			prof.WriteText(os.Stdout, *top)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "regionstat:", err)
		os.Exit(1)
	}
}
