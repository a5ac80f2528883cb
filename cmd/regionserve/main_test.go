package main

import (
	"strings"
	"testing"
)

// goodOptions is a flag set validate accepts; each test case mutates one
// knob off it.
func goodOptions() options {
	return options{sessions: 2000, shards: 4, rate: 700, queue: 64}
}

// TestValidateFlagTable is the fail-fast audit of the CLI contract: every
// bad flag combination is rejected with a message naming the flag, and the
// good combinations — including the full tenant/resize shape — pass.
func TestValidateFlagTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string // "" means the flag set must validate
	}{
		{"defaults", func(o *options) {}, ""},
		{"zero-sessions", func(o *options) { o.sessions = 0 }, "-sessions"},
		{"negative-sessions", func(o *options) { o.sessions = -5 }, "-sessions"},
		{"zero-shards", func(o *options) { o.shards = 0 }, "-shards"},
		{"zero-rate", func(o *options) { o.rate = 0 }, "-rate"},
		{"negative-rate", func(o *options) { o.rate = -1 }, "-rate"},
		{"zero-queue", func(o *options) { o.queue = 0 }, "-queue"},
		{"burst-no-len", func(o *options) { o.burstEvery = 1000 }, "-burst-len"},
		{"burst-len-too-long", func(o *options) { o.burstEvery = 1000; o.burstLen = 1000 }, "-burst-len"},
		{"burst-ok", func(o *options) { o.burstEvery = 1000; o.burstLen = 100 }, ""},
		{"fault-prob-high", func(o *options) { o.faultProb = 1.5 }, "-fault-prob"},
		{"fault-prob-negative", func(o *options) { o.faultProb = -0.1 }, "-fault-prob"},
		{"sweep-budget-without-defer", func(o *options) { o.sweepBud = 8 }, "-sweep-budget requires"},
		{"sweep-highwater-without-defer", func(o *options) { o.sweepWater = 8 }, "-sweep-highwater requires"},
		{"negative-sweep-budget", func(o *options) { o.deferDel = true; o.sweepBud = -1 }, "-sweep-budget"},
		{"negative-sweep-highwater", func(o *options) { o.deferDel = true; o.sweepWater = -1 }, "-sweep-highwater"},
		{"defer-ok", func(o *options) { o.deferDel = true; o.sweepBud = 4; o.sweepWater = 16 }, ""},
		{"negative-tenants", func(o *options) { o.tenants = -1 }, "-tenants"},
		{"tenants-ok", func(o *options) { o.tenants = 8 }, ""},
		{"resize-without-tenants", func(o *options) { o.resizeTo = 8 }, "-resize requires -tenants"},
		{"resize-equal-shards", func(o *options) { o.tenants = 8; o.resizeTo = 4 }, "must exceed -shards"},
		{"resize-shrink", func(o *options) { o.tenants = 8; o.resizeTo = 2 }, "must exceed -shards"},
		{"resize-ok", func(o *options) { o.tenants = 8; o.resizeTo = 8 }, ""},
		{"resize-after-without-resize", func(o *options) { o.resizeAfter = 0.5 }, "-resize-after requires"},
		{"resize-after-too-big", func(o *options) { o.tenants = 8; o.resizeTo = 8; o.resizeAfter = 1 }, "-resize-after"},
		{"resize-after-negative", func(o *options) { o.tenants = 8; o.resizeTo = 8; o.resizeAfter = -0.5 }, "-resize-after"},
		{"resize-after-ok", func(o *options) { o.tenants = 8; o.resizeTo = 8; o.resizeAfter = 0.25 }, ""},
		{"chrome-without-explain", func(o *options) { o.chrome = "spans.json" }, "-chrome requires -explain"},
		{"jsonl-without-explain", func(o *options) { o.jsonl = "spans.jsonl" }, "-jsonl requires -explain"},
		{"explain-exports-ok", func(o *options) { o.explain = true; o.chrome = "spans.json"; o.jsonl = "spans.jsonl" }, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			tc.mut(&o)
			err := o.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("flag set rejected: %v (%+v)", err, o)
				}
				return
			}
			if err == nil {
				t.Fatalf("flag set accepted: %+v", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
