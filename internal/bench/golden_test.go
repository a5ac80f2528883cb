package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"regions/internal/core"
	"regions/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAppCountersGolden pins the six paper apps' simulated cycles and cache
// stalls across commits: each app at a sixteenth of its default scale, with
// the cache model, on the safe and unsafe runtimes and on a safe runtime
// with deferred deletion. Every Cycles mode, both stall counts, the cleanup
// and destroy calls, the mapped bytes and the checksum are recorded, so a
// change to a charged heap walk that reorders or adds a single simulated
// access fails here. Regenerate with
// `go test ./internal/bench -run TestAppCountersGolden -update` only for a
// change that means to move simulated numbers.
func TestAppCountersGolden(t *testing.T) {
	const path = "testdata/app_counters.golden"
	s := NewSuite(16)
	var b strings.Builder
	for _, app := range Apps() {
		for _, r := range []Result{
			s.RegionRun(app, "safe", false, true),
			s.RegionRun(app, "unsafe", false, true),
			s.customRun(app, "deferred", core.Options{Safe: true, DeferredDelete: true}, true),
		} {
			c := &r.Counters
			fmt.Fprintf(&b, "%s %s checksum=%#08x", r.App, r.Env, r.Checksum)
			for m := stats.Mode(0); m < stats.NumModes; m++ {
				fmt.Fprintf(&b, " %s=%d", m, c.Cycles[m])
			}
			fmt.Fprintf(&b, " read_stalls=%d write_stalls=%d cleanup_calls=%d destroy_calls=%d mapped_bytes=%d\n",
				c.ReadStalls, c.WriteStalls, c.CleanupCalls, c.DestroyCalls, r.OSBytes)
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
