package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file turns the ROADMAP's "diff, don't eyeball" rule into code: load
// a checked-in benchmark report, diff a freshly measured one against it and
// decide pass/fail. Both reports are flattened to their JSON leaves, each
// named by its path; an array element that has a name (a metrics series, a
// micro benchmark) is keyed by that name, so a path survives added
// entries. Every simulated number in a report is exact, a function of its
// configuration alone on any host, so one rule decides every leaf:
//
//   - the host leaves (hostLeaves) and the configuration leaves (scaleDiv,
//     repeats) are context, printed and never gated;
//   - a micro leaf is gated at any configuration, because RunMicro takes
//     none;
//   - every other leaf is gated when scaleDiv and repeats match, and is
//     context otherwise.
//
// A leaf only one side has is a difference, because encoding/json omits
// zero fields.

// hostLeaves are the leaf names whose values vary from run to run: the
// wall-clock timings and the host's parallelism.
var hostLeaves = map[string]bool{
	"nsPerOp": true, "wallSeconds": true, "tasksPerSec": true, "goMaxProcs": true, "numCPU": true,
}

// Leaves is a report flattened to its JSON leaves: each number (as a
// json.Number, so it compares exactly), string, bool or null, keyed by its
// path.
type Leaves map[string]any

// LoadReport reads and validates a benchmark report (the checked-in
// BENCH_PR*.json artifacts) and returns its leaves, flattened from the
// bytes read, so a field this binary no longer writes still shows. It
// fails with a descriptive error — not a panic — on unreadable files,
// malformed JSON, a schema that is not regions-bench, or a schema_version
// this binary does not speak.
func LoadReport(path string) (Leaves, error) {
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
	return flatten(data)
}

// LeavesOf flattens v's JSON encoding: a freshly built report, or any
// value whose encoding is compared the same way.
func LeavesOf(v any) (Leaves, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("bench: encode report: %w", err)
	}
	return flatten(data)
}

func flatten(data []byte) (Leaves, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("bench: parse report: %w", err)
	}
	out := Leaves{}
	addLeaves(out, "", v)
	return out, nil
}

func addLeaves(out Leaves, path string, v any) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if path != "" {
				k = path + "." + k
			}
			addLeaves(out, k, x)
		}
	case []any:
		for i, x := range v {
			key := strconv.Itoa(i)
			if m, ok := x.(map[string]any); ok {
				if name, ok := m["name"].(string); ok {
					key = name
				}
			}
			addLeaves(out, path+"["+key+"]", x)
		}
	default:
		out[path] = v
	}
}

// gated reports whether a difference at path fails the gate.
func gated(path string, sameConfig bool) bool {
	switch {
	case hostLeaves[path[strings.LastIndex(path, ".")+1:]], path == "scaleDiv", path == "repeats":
		return false
	case strings.HasPrefix(path, "micro["):
		return true
	}
	return sameConfig
}

// CompareReports prints every leaf in which cur differs from old, in path
// order, and returns the gated ones (see the rule above) as "path: old ->
// new". An empty list means the gate passes.
func CompareReports(w io.Writer, old, cur Leaves) []string {
	sameConfig := old["scaleDiv"] == cur["scaleDiv"] && old["repeats"] == cur["repeats"]
	if sameConfig {
		fmt.Fprintf(w, "scaleDiv %v, repeats %v on both sides: every leaf but the host ones is gated\n",
			cur["scaleDiv"], cur["repeats"])
	} else {
		fmt.Fprintf(w, "configs differ: only the micro leaves are gated\n")
	}
	paths := make([]string, 0, len(cur))
	for p := range cur {
		paths = append(paths, p)
	}
	for p := range old {
		if _, ok := cur[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	show := func(l Leaves, p string) string {
		if v, ok := l[p]; ok {
			text, _ := json.Marshal(v)
			return string(text)
		}
		return "absent"
	}
	var regressions []string
	for _, p := range paths {
		o, inOld := old[p]
		c, inCur := cur[p]
		if inOld == inCur && o == c {
			continue
		}
		d := fmt.Sprintf("%s: %s -> %s", p, show(old, p), show(cur, p))
		if gated(p, sameConfig) {
			regressions = append(regressions, d)
			fmt.Fprintf(w, "  %s\n", d)
		} else {
			fmt.Fprintf(w, "  %s (context)\n", d)
		}
	}
	if len(regressions) == 0 {
		fmt.Fprintf(w, "(no gated differences)\n")
	}
	return regressions
}
