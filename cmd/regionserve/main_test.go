package main

import (
	"strings"
	"testing"
)

// TestValidateFlagTable is the fail-fast audit of the CLI contract: each
// command line below is parsed and validated, and a bad one must be
// refused — by the CLI's own rules, naming the flag, or by
// serve.Config.Validate, naming the field the flag sets — while the good
// ones, the full tenant/resize shape among them, pass.
func TestValidateFlagTable(t *testing.T) {
	cases := []struct {
		name string
		args string
		want string // "" means the command line must validate
	}{
		{"defaults", "", ""},
		{"stray-argument", "-sessions 10 stray -explain", `unexpected argument "stray"`},
		{"zero-sessions", "-sessions 0", "Sessions"},
		{"negative-sessions", "-sessions -5", "Sessions"},
		{"zero-shards", "-shards 0", "-shards"},
		{"zero-rate", "-rate 0", "-rate"},
		{"negative-rate", "-rate -1", "Rate"},
		{"nan-rate", "-rate NaN", "Rate"},
		{"infinite-rate", "-rate Inf", "Rate"},
		{"zero-queue", "-queue 0", "-queue"},
		{"zero-slo-p99", "-slo-p99 0", "-slo-p99"},
		{"slo-p99-ok", "-slo-p99 1", ""},
		{"negative-page-limit", "-page-limit -5", "PageLimit"},
		{"page-limit-ok", "-page-limit 96", ""},
		{"burst-no-len", "-burst-every 1000", "BurstLen"},
		{"burst-len-too-long", "-burst-every 1000 -burst-len 1000", "BurstLen"},
		{"burst-ok", "-burst-every 1000 -burst-len 100", ""},
		{"zero-burst-x", "-burst-x 0", "-burst-x"},
		{"negative-burst-x", "-burst-x -2", "BurstFactor"},
		{"nan-burst-x", "-burst-every 1000 -burst-len 100 -burst-x NaN", "BurstFactor"},
		{"infinite-burst-x", "-burst-every 1000 -burst-len 100 -burst-x Inf", "BurstFactor"},
		{"fault-prob-high", "-fault-prob 1.5", "FailProb"},
		{"fault-prob-negative", "-fault-prob -0.1", "FailProb"},
		{"fault-prob-nan", "-fault-prob NaN", "FailProb"},
		{"fault-ok", "-fault-nth 5 -fault-prob 0.5 -fault-budget 65536", ""},
		{"sweep-budget-without-defer", "-sweep-budget 8", "SweepBudget requires DeferredDelete"},
		{"sweep-highwater-without-defer", "-sweep-highwater 8", "SweepHighWater requires DeferredDelete"},
		{"negative-sweep-budget", "-defer-delete -sweep-budget -1", "SweepBudget"},
		{"negative-sweep-highwater", "-defer-delete -sweep-highwater -1", "SweepHighWater"},
		{"defer-ok", "-defer-delete -sweep-budget 4 -sweep-highwater 16", ""},
		{"negative-tenants", "-tenants -1", "Tenants"},
		{"tenants-ok", "-tenants 8", ""},
		{"resize-without-tenants", "-resize 8", "ResizeTo requires Tenants"},
		{"resize-equal-shards", "-tenants 8 -resize 4", "ResizeTo (4) must exceed Shards (4)"},
		{"resize-shrink", "-tenants 8 -resize 2", "ResizeTo (2) must exceed Shards (4)"},
		{"resize-ok", "-tenants 8 -resize 8", ""},
		{"resize-after-without-resize", "-resize-after 0.5", "ResizeAfter requires ResizeTo"},
		{"resize-after-too-big", "-tenants 8 -resize 8 -resize-after 1", "ResizeAfter"},
		{"resize-after-negative", "-tenants 8 -resize 8 -resize-after -0.5", "ResizeAfter"},
		{"resize-after-nan", "-tenants 8 -resize 8 -resize-after NaN", "ResizeAfter"},
		{"resize-after-infinite", "-tenants 8 -resize 8 -resize-after Inf", "ResizeAfter"},
		{"resize-after-ok", "-tenants 8 -resize 8 -resize-after 0.25", ""},
		{"profile-unknown", "-profile nope", "Profile"},
		{"profile-ok", "-profile bulk", ""},
		{"top-slow-without-explain", "-top-slow 3", "TopSlow requires Spans"},
		{"negative-top-slow", "-explain -top-slow -1", "TopSlow"},
		{"chrome-without-explain", "-chrome spans.json", "-chrome requires -explain"},
		{"jsonl-without-explain", "-jsonl spans.jsonl", "-jsonl requires -explain"},
		{"explain-exports-ok", "-explain -top-slow 3 -chrome spans.json -jsonl spans.jsonl", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
		})
	}
}

// TestParseBindsConfig: the flags land in the serve.Config fields their
// usage lines name, and the fault plan is kept only when it injects
// something.
func TestParseBindsConfig(t *testing.T) {
	o, err := parse(strings.Fields("-sessions 50 -shards 2 -explain -fault-seed 9"))
	if err != nil {
		t.Fatal(err)
	}
	if c := o.cfg; c.Sessions != 50 || c.Shards != 2 || !c.Spans || c.FaultPlan != nil {
		t.Errorf("config %+v: want 50 sessions, 2 shards, spans and no fault plan", c)
	}
	o, err = parse(strings.Fields("-fault-nth 3 -fault-seed 9"))
	if err != nil {
		t.Fatal(err)
	}
	if p := o.cfg.FaultPlan; p == nil || p.FailNth != 3 || p.Seed != 9 {
		t.Errorf("fault plan %+v: want FailNth 3, Seed 9", p)
	}
}
