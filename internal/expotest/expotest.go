// Package expotest pins a metrics registry's Prometheus exposition to a
// golden file, byte for byte. Tests across the stack use it to prove that a
// change to how series are collected leaves every name, label and value
// where it was. Regenerate a golden file with
// `go test <package> -run <Test> -update` (the package before the flag).
package expotest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regions/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite exposition golden files")

// Check renders s in the Prometheus text format, leaving out every series
// whose metric name (labels stripped) is in exclude, and compares the text
// with the golden file at path.
func Check(t testing.TB, path string, s *metrics.Snapshot, exclude ...string) {
	t.Helper()
	skip := map[string]bool{}
	for _, name := range exclude {
		skip[name] = true
	}
	kept := func(name string) bool {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		return !skip[name]
	}
	f := *s
	f.Counters, f.Gauges, f.Histograms = nil, nil, nil
	for _, c := range s.Counters {
		if kept(c.Name) {
			f.Counters = append(f.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if kept(g.Name) {
			f.Gauges = append(f.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if kept(h.Name) {
			f.Histograms = append(f.Histograms, h)
		}
	}
	var got bytes.Buffer
	if err := metrics.WritePrometheus(&got, &f); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("exposition drifted from %s at line %d:\n got  %q\n want %q", path, i+1, gl, wl)
		}
	}
}
