package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json that comparisons need.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from the working directory or its parent,
// so comparisons run from the repository root or from benchmark/.
func readSpec() (*spec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("parse %s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// readResults reads a file of results, one JSON line each, as -out writes.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return out, nil
}

// runs holds one metric's values from one side of a comparison, by seed.
type runs map[int64]float64

func (r runs) values() []float64 {
	v := make([]float64, 0, len(r))
	for _, x := range r {
		v = append(v, x)
	}
	sort.Float64s(v)
	return v
}

// collect groups every run's values by workload, then metric.
func collect(rs []result, layers bool) map[string]map[string]runs {
	out := map[string]map[string]runs{}
	for _, r := range rs {
		m := r.EndToEnd
		if layers {
			m = r.PerLayer
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]runs{}
		}
		for name, v := range m {
			if out[r.Workload][name] == nil {
				out[r.Workload][name] = runs{}
			}
			out[r.Workload][name][r.Seed] = v.Value
		}
	}
	return out
}

// compareFiles compares the runs in parent file a with those in change file
// b: for each workload, one row per end-to-end metric with each side's
// median and quartiles and a verdict, then the per-layer metrics whose
// median moved, which locate a change to its layer. It reports whether any
// end-to-end metric got worse.
func compareFiles(w io.Writer, a, b string) (bool, error) {
	s, err := readSpec()
	if err != nil {
		return false, fmt.Errorf("read the metric bounds: %w", err)
	}
	ra, err := readResults(a)
	if err != nil {
		return false, err
	}
	rb, err := readResults(b)
	if err != nil {
		return false, err
	}
	sim := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		sim[d.name] = d.sim
	}
	ea, eb := collect(ra, false), collect(rb, false)
	la, lb := collect(ra, true), collect(rb, true)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tsame seeds\tverdict")
	worse := false
	for _, wl := range workloadsIn(ea, eb) {
		for _, m := range s.EndToEnd {
			va, vb := ea[wl][m.Name], eb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va.values(), vb.values(), m.Better, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%g\t%s\t%s\n", wl, m.Name,
				quartileText(va.values()), quartileText(vb.values()),
				100*relChange(va.values(), vb.values()), m.Bound, sameSeeds(va, vb, sim[m.Name]), v)
		}
		for _, m := range s.PerLayer {
			va, vb := la[wl][m.Name], lb[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 || median(va.values()) == median(vb.values()) {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t-\t%s\t(layer)\n", wl, m.Name,
				quartileText(va.values()), quartileText(vb.values()),
				100*relChange(va.values(), vb.values()), sameSeeds(va, vb, sim[m.Name]))
		}
	}
	return worse, tw.Flush()
}

// workloadsIn lists the workloads present on both sides, in run order.
func workloadsIn(a, b map[string]map[string]runs) []string {
	var out []string
	for _, n := range workloadNames {
		if a[n] != nil && b[n] != nil {
			out = append(out, n)
		}
	}
	return out
}

// verdict judges the change's runs b against the parent's runs a. When
// either side's spread (quartile distance over median) is wider than the
// bound, nothing can be told apart: unresolved, unless every run of b
// reads better than every run of a. Otherwise b is worse when its median
// is worse than a's by more than the bound's share of a's median.
func verdict(a, b []float64, better string, bound float64) string {
	if spread(a) > bound || spread(b) > bound {
		if better == "lower" && b[len(b)-1] < a[0] || better == "higher" && b[0] > a[len(a)-1] {
			return "ok"
		}
		return "unresolved"
	}
	change := relChange(a, b)
	if better == "higher" {
		change = -change
	}
	if change > bound {
		return "worse"
	}
	return "ok"
}

// relChange is b's median change over a's.
func relChange(a, b []float64) float64 {
	return ratio(median(b)-median(a), median(a))
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q := quartiles(v)
	return ratio(q[2]-q[0], q[1])
}

// quartiles returns the three cut points of sorted v by the "exclusive"
// method of Python's statistics.quantiles(v, n=4).
func quartiles(v []float64) [3]float64 {
	n := len(v)
	if n < 2 {
		return [3]float64{v[0], v[0], v[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q
}

func quartileText(v []float64) string {
	q := quartiles(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}

// sameSeeds reports, for a metric on the simulated clock, how many seeds
// run on both sides gave the same value: a simulator-only change must keep
// every one of them.
func sameSeeds(a, b runs, sim bool) string {
	if !sim {
		return "-"
	}
	same, both := 0, 0
	for seed, x := range a {
		if y, ok := b[seed]; ok {
			both++
			if x == y {
				same++
			}
		}
	}
	return fmt.Sprintf("%d/%d", same, both)
}
