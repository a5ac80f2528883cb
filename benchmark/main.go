// Command benchmark is the repository's end-to-end benchmark. It runs the
// six paper applications and three serving mixes, checks their outputs, and
// reports end-to-end and per-layer metrics on two clocks: simulated cycles,
// which are exact and deterministic per seed, and host wall time, which
// says how fast the simulator itself runs. README.md describes the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash benchmark/run.sh -compare A.jsonl B.jsonl
//
// Every metric is printed as "workload metric value unit". The last line of
// standard output for each workload is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// -trace 1 the per-layer ones. The exit status is nonzero if any output
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up sample counts. A set-up takes about a millisecond, so each of the
// setupSamples samples times setupBatch set-ups in a row and setup_s is
// the median sample.
const (
	setupSamples = 21
	setupBatch   = 10
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Float64("seconds", 5, "host seconds the timed repetitions run for")
	traced := fs.Int("trace", 0, "1: the JSON line carries the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "append each workload's full result to this file as one JSON line")
	compare := fs.Bool("compare", false, "compare two result files written by -out: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	status := 0
	for _, n := range names {
		w, err := newWorkload(n, *seed, 1)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		res, err := measure(n, w, options{seed: *seed, seconds: *seconds, capacity: *traced == 0})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", n, err)
			return 1
		}
		if err := report(stdout, res, *traced == 1); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", n, e)
		}
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// options are the settings of one measurement.
type options struct {
	seed    int64
	seconds float64
	// capacity runs the capacity search, which only the end-to-end
	// capacity_rate metric needs.
	capacity bool
}

// workload is one benchmark input set. measure calls its methods in order:
// an untimed warm-up repetition, set-up samples, then the traced
// repetition and the capacity search with timed repetitions before, between
// and after them.
type workload interface {
	// setup builds what one repetition needs before its first simulated
	// cycle, then discards it.
	setup() error
	// rep runs one untraced repetition.
	rep() (repOut, error)
	// traced runs the traced repetition. It sets the simulated latency
	// metrics and every per-layer metric on res and checks the cycle
	// ledgers and that the simulated outputs equal want's. It returns the
	// simulated cycles of work one repetition does and the host seconds of
	// the part comparable to one untraced repetition.
	traced(res *result, want repOut) (tracedOut, error)
	// capacity returns the capacity_rate metric.
	capacity(tr tracedOut) (float64, error)
}

// repOut is what one untraced repetition produced.
type repOut struct {
	// sim renders every simulated output of the repetition; it must be the
	// same for every repetition of one workload and seed.
	sim       string
	osBytes   uint64 // bytes the programs mapped from the simulated OS
	attempted uint64
	failed    uint64
	// parts are the host seconds of the repetition's separately timed
	// parts, in the same order every repetition; nil means the repetition
	// is one part, timed whole.
	parts []float64
}

// tracedOut is what the traced repetition measured for the end-to-end
// metrics.
type tracedOut struct {
	simCycles uint64  // simulated cycles of work in one repetition
	host      float64 // seconds, comparable to one untraced repetition
}

// measure runs one workload and returns its result. An error means the
// workload could not run at all; failed output checks are recorded in the
// result instead.
func measure(name string, w workload, o options) (*result, error) {
	res := newResult(name, o.seed)
	ref, err := w.rep()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Set-up is timed after the warm-up, once the heap has grown to its
	// working size, so that fresh-memory page faults do not swamp it.
	setup := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < setupBatch; j++ {
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds()/setupBatch)
	}
	// The timed repetitions run in stretches of a third of the budget each:
	// before the traced repetition, between it and the capacity search, and
	// after that. A slow phase of a shared host lasts tens of seconds;
	// spread out, the repetitions sample the host over the whole run.
	t := &timedReps{w: w, ref: ref, res: res}
	if err := t.run(o.seconds / 3); err != nil {
		return nil, err
	}
	runtime.GC()
	tr, err := w.traced(res, ref)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	if err := t.run(o.seconds / 3); err != nil {
		return nil, err
	}
	if o.capacity {
		c, err := w.capacity(tr)
		if err != nil {
			return nil, fmt.Errorf("capacity search: %w", err)
		}
		res.e2e("capacity_rate", c)
	}
	if err := t.run(o.seconds / 3); err != nil {
		return nil, err
	}
	// Other tenants of a shared host only ever add time, and they come and
	// go within a run: host_s is the sum of each part's fastest time. On a
	// busy two-core host the median repetition moved 25% from run to run,
	// the fastest 18% and the sum of the fastest parts 14%.
	host := sumOf(t.fastest)
	res.layer("trace.overhead_pct", 100*(tr.host/median(t.hostS)-1))
	simM := float64(tr.simCycles) / 1e6
	res.e2e("sim_mcycles", simM)
	res.e2e("sim_os_mb", float64(ref.osBytes)/(1<<20))
	res.layer("host_s", host)
	res.layer("sim_mcycles_per_s", simM/host)
	res.e2e("host_alloc_mb", median(t.allocMB))
	res.e2e("setup_s", median(setup))
	if err := res.complete(o.capacity); err != nil {
		return nil, err
	}
	return res, nil
}

// timedReps collects the timed untraced repetitions of one workload.
type timedReps struct {
	w   workload
	ref repOut // the warm-up's outputs, which every repetition repeats
	res *result
	// hostS and allocMB are per repetition; fastest is per part.
	hostS, allocMB, fastest []float64
}

// run times repetitions, each after a GC, until budget seconds have passed,
// and at least once.
func (t *timedReps) run(budget float64) error {
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < budget; first = false {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := t.w.rep()
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		n := len(t.hostS) + 1
		if err != nil {
			return fmt.Errorf("repetition %d: %w", n, err)
		}
		if out.sim != t.ref.sim {
			t.res.fail("repetition %d changed the simulated outputs: %s, warm-up %s", n, out.sim, t.ref.sim)
		}
		if out.parts == nil {
			out.parts = []float64{dt}
		}
		if t.fastest == nil {
			t.fastest = slices.Clone(out.parts)
		}
		for i, v := range out.parts {
			t.fastest[i] = min(t.fastest[i], v)
		}
		t.hostS = append(t.hostS, sumOf(out.parts))
		t.allocMB = append(t.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		t.res.Attempted += out.attempted
		t.res.Failed += out.failed
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's measurement, as -out writes it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

func newResult(workload string, seed int64) *result {
	return &result{Workload: workload, Seed: seed, Correct: true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *result) e2e(name string, v float64) {
	r.EndToEnd[name] = metric{Value: v, Unit: endToEndUnits[name]}
}

func (r *result) layer(name string, v float64) {
	r.PerLayer[name] = metric{Value: v, Unit: perLayerUnits[name]}
}

// complete checks that every catalogued metric was measured, so a metric
// that a workload forgot cannot pass as a silent zero.
func (r *result) complete(capacity bool) error {
	var missing []string
	for _, d := range endToEnd {
		if _, ok := r.EndToEnd[d.name]; !ok && (capacity || d.name != "capacity_rate") {
			missing = append(missing, d.name)
		}
	}
	for _, d := range perLayer {
		if _, ok := r.PerLayer[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return nil
}

// report prints every metric as "workload metric value unit", then the
// one-line JSON object: end-to-end metrics, or per-layer ones if layers.
func report(w io.Writer, r *result, layers bool) error {
	for _, set := range []struct {
		defs []metricDef
		m    map[string]metric
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range set.defs {
			if m, ok := set.m[d.name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
			}
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.EndToEnd}
	if layers {
		line.Metrics = r.PerLayer
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode %s result: %w", r.Workload, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendResult appends r to path as one JSON line.
func appendResult(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode %s result: %w", r.Workload, err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// median returns the middle of v (the mean of the two middles for an even
// count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sumOf returns the sum of v.
func sumOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
