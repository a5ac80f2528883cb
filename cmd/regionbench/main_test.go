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

// TestValidateFlagTable is the fail-fast audit of the CLI contract: each
// command line below is parsed and validated, and a bad one must be refused
// with a message naming the flag at fault — among them every flag the
// selected mode would ignore — while the good ones pass.
func TestValidateFlagTable(t *testing.T) {
	cases := []struct {
		args string
		want string // "" means the command line must validate
	}{
		{"", ""},
		{"-all -ablation -related -scale-div 8", ""},
		{"-table 2 -verify=false", ""},
		{"-scale-div 0", "-scale-div"},
		{"-table 1 stray -metrics-addr 127.0.0.1:0", `unexpected argument "stray"`},
		{"-table 4", "tables are 1-3"},
		{"-figure 7", "figures are 8-11"},
		{"-shards 0", "-shards must be at least 1"},
		{"-shards -1", "-shards must be at least 1"},
		{"-shards 4 -repeats 0", "-repeats must be at least 1"},
		{"-shards 4 -metrics-addr 127.0.0.1:0 -heap-profile-every -1", "-heap-profile-every must be at least 0"},
		{"-compare a.json -bench-out b.json", "mutually exclusive"},
		{"-shards 4 -bench-out b.json", "-shards runs one throughput run"},
		{"-shards 4 -compare a.json", "-shards runs one throughput run"},
		// Throughput flags outside the throughput modes.
		{"-table 1 -metrics-addr 127.0.0.1:0", "-metrics-addr requires -shards, -bench-out or -compare"},
		{"-repeats 2", "-repeats requires"},
		{"-all -heap-profile-every 8", "-heap-profile-every requires"},
		{"-shards 4 -heap-profile-every 8", "-heap-profile-every requires -metrics-addr"},
		// Rendering flags inside them.
		{"-shards 4 -table 1", "-table selects"},
		{"-bench-out b.json -figure 9", "-figure selects"},
		{"-compare a.json -all", "-all selects"},
		{"-compare a.json -ablation", "-ablation selects"},
		{"-compare a.json -related", "-related selects"},
		{"-bench-out b.json -json", "-json selects"},
		{"-compare a.json -verify=false", "-verify selects"},
		// The throughput modes and their flags.
		{"-shards 4 -repeats 8 -scale-div 8", ""},
		{"-shards 4 -metrics-addr 127.0.0.1:0 -heap-profile-every 8", ""},
		{"-scale-div 4 -repeats 4 -compare a.json", ""},
		{"-bench-out b.json -metrics-addr 127.0.0.1:0", ""},
	}
	for _, tc := range cases {
		o, err := parse(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		err = o.validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q accepted", tc.args)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}
