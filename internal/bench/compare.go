package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"regions/internal/metrics"
)

// This file turns the ROADMAP's "diff, don't eyeball" rule into code: load
// a checked-in benchmark report, diff a freshly measured one against it and
// decide pass/fail. Every simulated number in a report is exact, a
// function of its configuration alone on any host, so when both reports
// ran the same scaleDiv and repeats, any difference in a checksum, a
// throughput or imbalance makespan, a per-shard cycle count, a steal count
// or an embedded metrics series is a change, and the gate fails on it. The
// micro benchmarks' simulated cycles per op do not depend on the
// configuration, so they are gated across configurations too, against a
// threshold. Host timings are printed as context only.

// DefaultCompareThreshold is the allowed fractional increase in a micro
// benchmark's simulated cycles per op before the comparison fails. The
// micro sims are deterministic, so this only leaves room for intentional
// remodelling, not noise.
const DefaultCompareThreshold = 0.05

// LoadReport reads and validates a benchmark report (the checked-in
// BENCH_PR*.json artifacts). It fails with a descriptive error — not a
// panic — on unreadable files, malformed JSON, a schema that is not
// regions-bench, or a schema_version this binary does not speak.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse report %s: %w", path, err)
	}
	if !strings.HasPrefix(r.Schema, "regions-bench/") {
		return nil, fmt.Errorf("bench: %s: schema %q is not a regions-bench report", path, r.Schema)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema_version %d, this binary speaks %d — regenerate the artifact",
			path, r.SchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}

// CompareReports prints a delta report of cur against old — micro
// benchmarks, throughput, imbalance, serving and the metrics series — and
// returns the list of regressions: micro benchmarks whose simulated cycles
// per op grew by more than threshold and, when both reports ran the same
// configuration, every simulated number that differs. An empty list means
// the gate passes.
func CompareReports(w io.Writer, old, cur *Report, threshold float64) []string {
	var regressions []string

	fmt.Fprintf(w, "micro (sim cycles/op; ns/op is host-dependent context):\n")
	fmt.Fprintf(w, "  %-28s %12s %12s %10s %8s\n", "name", "old", "new", "delta", "reuse")
	// reuseCol renders the strallocs micros' pool hit ratio; other
	// benchmarks leave the column blank.
	reuseCol := func(m MicroResult) string {
		if m.ReuseRatio == 0 {
			return ""
		}
		return fmt.Sprintf("%.3f", m.ReuseRatio)
	}
	oldMicro := make(map[string]MicroResult, len(old.Micro))
	for _, m := range old.Micro {
		oldMicro[m.Name] = m
	}
	for _, m := range cur.Micro {
		o, ok := oldMicro[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-28s %12s %12.2f %10s %8s\n", m.Name, "-", m.SimCyclesPerOp, "new", reuseCol(m))
			continue
		}
		delta := m.SimCyclesPerOp - o.SimCyclesPerOp
		fmt.Fprintf(w, "  %-28s %12.2f %12.2f %+10.2f %8s\n", m.Name, o.SimCyclesPerOp, m.SimCyclesPerOp, delta, reuseCol(m))
		if o.SimCyclesPerOp > 0 && m.SimCyclesPerOp > o.SimCyclesPerOp*(1+threshold) {
			// The message carries the benchmark's own unit from the micro
			// table, so a gate failure reads correctly for host-side
			// benchmarks too, not just the sim-cycle ones.
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2f -> %.2f %s (+%.1f%%, threshold %.1f%%)",
					m.Name, o.SimCyclesPerOp, m.SimCyclesPerOp, m.unit(),
					100*delta/o.SimCyclesPerOp, 100*threshold))
		}
	}

	sameConfig := old.ScaleDiv == cur.ScaleDiv && old.Repeats == cur.Repeats
	fmt.Fprintf(w, "\nthroughput (old: scaleDiv=%d repeats=%d; new: scaleDiv=%d repeats=%d):\n",
		old.ScaleDiv, old.Repeats, cur.ScaleDiv, cur.Repeats)
	oldTp := make(map[int]ThroughputResult, len(old.Throughput))
	for _, t := range old.Throughput {
		oldTp[t.Shards] = t
	}
	for _, t := range cur.Throughput {
		o, ok := oldTp[t.Shards]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  shards=%d makespan %.6f -> %.6f Mcycles, speedup %.2f -> %.2f, steals %d -> %d\n",
			t.Shards, o.SimMakespanMcycles, t.SimMakespanMcycles, o.SimSpeedup, t.SimSpeedup, o.Steals, t.Steals)
		if sameConfig {
			regressions = append(regressions, runDiffs(fmt.Sprintf("throughput shards=%d", t.Shards), o, t)...)
		}
	}
	if !sameConfig {
		fmt.Fprintf(w, "  (configs differ: simulated numbers and metrics compared as context only)\n")
	}

	if o, c := old.Imbalance, cur.Imbalance; o != nil && c != nil {
		fmt.Fprintf(w, "\nimbalance (%d shards, %s): static makespan %.6f -> %.6f, stealing %.6f -> %.6f Mcycles, steals %d -> %d\n",
			c.Shards, c.App, o.NoSteal.SimMakespanMcycles, c.NoSteal.SimMakespanMcycles,
			o.Steal.SimMakespanMcycles, c.Steal.SimMakespanMcycles, o.Steal.Steals, c.Steal.Steals)
		if sameConfig {
			regressions = append(regressions, runDiffs("imbalance static", o.NoSteal, c.NoSteal)...)
			regressions = append(regressions, runDiffs("imbalance stealing", o.Steal, c.Steal)...)
		}
	}

	regressions = append(regressions, compareServe(w, old, cur, sameConfig)...)
	regressions = append(regressions, compareServeAB(w, old, cur, sameConfig)...)
	regressions = append(regressions, compareStrAB(w, old, cur, sameConfig)...)

	if old.Metrics != nil && cur.Metrics != nil {
		fmt.Fprintf(w, "\nmetrics delta (new minus old; changed, added and removed series):\n")
		regressions = append(regressions, compareMetrics(w, old.Metrics, cur.Metrics, sameConfig)...)
	}
	return regressions
}

// runDiffs lists the simulated numbers in which two runs of one task set
// differ: the checksum, the makespan, the per-shard cycles and the steals.
func runDiffs(what string, o, c ThroughputResult) []string {
	var out []string
	if c.Checksum != o.Checksum {
		out = append(out, fmt.Sprintf("%s: checksum %#x, artifact has %#x — results changed", what, c.Checksum, o.Checksum))
	}
	if c.SimMakespanMcycles != o.SimMakespanMcycles {
		out = append(out, fmt.Sprintf("%s: makespan %.6f Mcycles, artifact has %.6f", what, c.SimMakespanMcycles, o.SimMakespanMcycles))
	}
	if !slices.Equal(c.PerShardMcycles, o.PerShardMcycles) {
		out = append(out, fmt.Sprintf("%s: per-shard Mcycles %v, artifact has %v", what, c.PerShardMcycles, o.PerShardMcycles))
	}
	if c.Steals != o.Steals {
		out = append(out, fmt.Sprintf("%s: %d steals, artifact has %d", what, c.Steals, o.Steals))
	}
	return out
}

// compareMetrics prints every series whose value differs between the two
// snapshots (signed, new minus old; a histogram as its count and sum
// deltas) and every series only one of them has, and, when gate is set,
// returns one regression per differing series both have.
func compareMetrics(w io.Writer, old, cur *metrics.Snapshot, gate bool) []string {
	o, c := seriesValues(old), seriesValues(cur)
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	for n := range o {
		if _, ok := c[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var regressions []string
	shown := 0
	for _, n := range names {
		ov, inOld := o[n]
		cv, inCur := c[n]
		var delta string
		switch {
		case !inOld:
			delta = "added"
		case !inCur:
			delta = "removed"
		case slices.Equal(ov, cv):
			continue
		case len(cv) != len(ov): // the series changed kind or buckets
			delta = "changed"
		case len(cv) == 1:
			delta = fmt.Sprintf("%+d", cv[0]-ov[0])
		default:
			delta = fmt.Sprintf("count%+d sum%+d", cv[0]-ov[0], cv[1]-ov[1])
		}
		if gate && inOld && inCur {
			regressions = append(regressions, fmt.Sprintf("metrics %s: %v, artifact has %v", n, cv, ov))
		}
		fmt.Fprintf(w, "  %-52s %s\n", n, delta)
		shown++
	}
	if shown == 0 {
		fmt.Fprintf(w, "  (no differences)\n")
	}
	return regressions
}

// seriesValues flattens a snapshot to one value list per series name: a
// counter's or a gauge's value, or a histogram's count, sum and bucket
// counts.
func seriesValues(s *metrics.Snapshot) map[string][]int64 {
	m := make(map[string][]int64, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for _, c := range s.Counters {
		m[c.Name] = []int64{int64(c.Value)}
	}
	for _, g := range s.Gauges {
		m[g.Name] = []int64{g.Value}
	}
	for _, h := range s.Histograms {
		v := []int64{int64(h.Count), int64(h.Sum)}
		for _, b := range h.Buckets {
			v = append(v, int64(b.Count))
		}
		m[h.Name] = v
	}
	return m
}
