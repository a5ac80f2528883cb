package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/bench"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// TestMain runs regionstat itself when a test re-executes the test binary
// with REGIONSTAT_RUN_MAIN set, so a test can read what the command writes.
func TestMain(m *testing.M) {
	if os.Getenv("REGIONSTAT_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs regionstat with args in a child process and returns its
// standard output.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REGIONSTAT_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("regionstat %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestJSONIsOneValue checks that -json writes exactly one JSON value, with
// and without -heap: the metrics snapshot under "metrics", and the heap
// report under "heap" only when the heap was profiled.
func TestJSONIsOneValue(t *testing.T) {
	for _, heap := range []bool{false, true} {
		args := []string{"-app", "mudlle", "-scale", "16", "-json"}
		if heap {
			args = append(args, "-heap")
		}
		out := runMain(t, args...)
		var doc struct {
			Metrics *metrics.Snapshot   `json:"metrics"`
			Heap    *metrics.HeapReport `json:"heap"`
		}
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("regionstat %s does not write one JSON value: %v", strings.Join(args, " "), err)
		}
		if doc.Metrics == nil || len(doc.Metrics.Counters) == 0 {
			t.Errorf("regionstat %s: no metrics snapshot under \"metrics\"", strings.Join(args, " "))
		}
		if (doc.Heap != nil) != heap || heap && doc.Heap.Origin != "mudlle" {
			t.Errorf("regionstat %s: heap report %+v", strings.Join(args, " "), doc.Heap)
		}
	}
}

// TestReportExactAtAnyRingSize runs every app under every environment it
// has with a 64-event ring, far too small for any region run (the collector
// emits only four events per collection, so some GC runs fit). Every total
// the report prints must equal the stats.Counters of an untraced run of the
// same app, and the regions it lists as live at exit must be that run's
// live regions; the six apps delete every region they create, so a last
// app leaves two of its three live.
func TestReportExactAtAnyRingSize(t *testing.T) {
	leaky := appkit.App{Name: "leaky", Region: func(e appkit.RegionEnv, scale int) uint32 {
		var rs []appkit.Region
		for i := 0; i < 3; i++ {
			rs = append(rs, e.NewRegion())
			for j := 0; j < 50*(i+1); j++ {
				e.RstrAlloc(rs[i], 8)
			}
		}
		e.DeleteRegion(rs[1])
		return 0
	}}
	number := regexp.MustCompile(`[0-9]+`)
	for _, app := range append(bench.Apps(), leaky) {
		for _, env := range []string{"safe", "unsafe", "GC"} {
			if env == "GC" && app.Malloc == nil {
				continue
			}
			t.Run(app.Name+"/"+env, func(t *testing.T) {
				ring := trace.New(64)
				got := runApp(app, env, 1, appkit.Config{Tracer: ring}, false)
				if ring.Stats().Dropped == 0 && env != "GC" {
					t.Fatal("the ring dropped nothing; the run is too small for this test")
				}
				var buf bytes.Buffer
				writeReport(&buf, ring, got, 0)
				lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")

				want := runApp(app, env, 1, appkit.Config{}, false)
				c := want.counters
				totals := []uint64{
					c.TotalCycles(), c.MemCycles(),
					c.Allocs, c.BytesRequested, c.FreeCalls,
					c.RegionsCreated, c.RegionsDeleted, uint64(c.LiveRegions), c.DeleteFails,
					uint64(c.MaxLiveRegions), uint64(c.MaxLiveBytes), c.MaxRegionBytes,
					c.Barriers.Global, c.Barriers.Region, c.Barriers.SameRegion,
					c.FramesScanned, c.FramesUnscanned, c.CleanupCalls, c.DestroyCalls, c.GCCollections,
					uint64(len(want.live)),
				}
				var printed []uint64
				for _, l := range lines[1:] { // after the ring's own line
					if strings.HasPrefix(l, "  ") {
						break
					}
					for _, s := range number.FindAllString(l, -1) {
						v, _ := strconv.ParseUint(s, 10, 64)
						printed = append(printed, v)
					}
				}
				if fmt.Sprint(printed) != fmt.Sprint(totals) {
					t.Errorf("report prints %v\nthe counters hold %v\nreport:\n%s", printed, totals, buf.String())
				}

				if app.Name == "leaky" && len(want.live) != 2 {
					t.Fatalf("%d regions live at exit, want 2", len(want.live))
				}
				listed := lines[len(lines)-len(want.live):]
				for i, r := range want.live {
					if w := "  " + r.String(); listed[i] != w {
						t.Errorf("live region %d listed as %q, want %q", i, listed[i], w)
					}
				}
			})
		}
	}
}
