package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file holds the two exposition formats. WritePrometheus emits the
// text-based exposition format version 0.0.4 (what a Prometheus server
// scrapes from /metrics); WriteJSON emits the snapshot as a schema-versioned
// JSON document, the form internal/bench embeds in regionbench reports.
// Both operate on a Snapshot, so one consistent capture can be rendered in
// either format (or diffed first and rendered as a rate).

// baseName splits a series name into its metric name and label suffix:
// `x_total{shard="0"}` → ("x_total", `{shard="0"}`).
func baseName(name string) (string, string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus renders s in the Prometheus text exposition format.
// Series are emitted in the snapshot's name-sorted order; labeled series
// sharing a base name are grouped under a single # TYPE line, and a labeled
// histogram's buckets, sum and count all carry its labels.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	typeLine := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, c := range s.Counters {
		base, labels := baseName(c.Name)
		typeLine(base, "counter")
		fmt.Fprintf(bw, "%s%s %d\n", base, labels, c.Value)
	}
	for _, g := range s.Gauges {
		base, labels := baseName(g.Name)
		typeLine(base, "gauge")
		fmt.Fprintf(bw, "%s%s %d\n", base, labels, g.Value)
	}
	for _, h := range s.Histograms {
		base, labels := baseName(h.Name)
		typeLine(base, "histogram")
		// A bucket carries the histogram's own labels before its le.
		bucketLabels := "{"
		if labels != "" {
			bucketLabels = labels[:len(labels)-1] + ","
		}
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.UpperBound != 0 {
				le = fmt.Sprintf("%d", b.UpperBound)
			}
			fmt.Fprintf(bw, "%s_bucket%sle=%q} %d\n", base, bucketLabels, le, cum)
		}
		fmt.Fprintf(bw, "%s_sum%s %d\n", base, labels, h.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", base, labels, h.Count)
	}
	return bw.Flush()
}

// WriteJSON renders s as indented JSON. The document carries
// schema_version (SnapshotSchemaVersion); consumers should reject versions
// they do not know.
func WriteJSON(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
