package main

import (
	"bytes"
	"strings"
	"testing"

	"regions/internal/bench"
)

// TestRenderEverySelection renders combinations of -all, -table, -json,
// -ablation and -related: every selected section must appear, in the one
// fixed order and one blank line apart, and the checksum cross-check must
// run exactly when -verify is on, -all included.
func TestRenderEverySelection(t *testing.T) {
	verified := 0
	verifyChecksums = func(*bench.Suite) error { verified++; return nil }
	defer func() { verifyChecksums = (*bench.Suite).VerifyChecksums }()

	paper := []string{"Workload scale:", "Table 1:", "Table 2:", "Table 3:",
		"Figure 8:", "Figure 9:", "Figure 10:", "Figure 11:"}
	ablations := []string{"Ablation 1:", "Ablation 2:", "Ablation 3:"}
	related := []string{"Related work:", "Vo's vmalloc", `Trace "uniform"`, `Trace "bimodal"`, `Trace "phased"`}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	s := bench.NewSuite(1 << 30) // every app at scale 1
	cases := []struct {
		name  string
		sel   selection
		heads []string
	}{
		{"all+ablation+related", selection{all: true, ablation: true, related: true}, cat(paper, ablations, related)},
		{"nothing selected", selection{verify: true}, paper},
		{"all+json", selection{all: true, json: true}, cat([]string{"["}, paper)},
		{"table+figure+ablation", selection{table: 2, figure: 11, ablation: true, verify: true},
			cat([]string{"Table 2:", "Figure 11:"}, ablations)},
	}
	for _, tc := range cases {
		verified = 0
		var buf bytes.Buffer
		if err := render(&buf, s, tc.sel); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if verified > 1 || (verified == 1) != tc.sel.verify {
			t.Errorf("%s: checksums cross-checked %d times with verify %v", tc.name, verified, tc.sel.verify)
		}
		// A section's head is the output's first line and every line that
		// follows a blank one.
		var heads []string
		lines := strings.Split(buf.String(), "\n")
		for i, l := range lines {
			if l != "" && (i == 0 || lines[i-1] == "") {
				heads = append(heads, l)
			}
		}
		ok := len(heads) == len(tc.heads)
		for i := 0; ok && i < len(heads); i++ {
			ok = strings.HasPrefix(heads[i], tc.heads[i])
		}
		if !ok {
			t.Errorf("%s: sections start\n  %q\nwant\n  %q", tc.name, heads, tc.heads)
		}
	}
}
