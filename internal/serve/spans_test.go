package serve

import (
	"reflect"
	"strings"
	"testing"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/trace"
)

// TestServeSpansChecksumParity is the acceptance gate from the issue: span
// recording is host-side observability, so enabling it must change nothing
// the simulation computes — not the checksum, not a single cycle count.
func TestServeSpansChecksumParity(t *testing.T) {
	off := testConfig()
	on := testConfig()
	on.Spans = true

	a, err := Run(off)
	if err != nil {
		t.Fatalf("spans off: %v", err)
	}
	b, err := Run(on)
	if err != nil {
		t.Fatalf("spans on: %v", err)
	}
	if b.Spans == nil {
		t.Fatal("Spans requested but Result.Spans is nil")
	}
	if a.Spans != nil {
		t.Fatal("Spans not requested but Result.Spans is set")
	}
	// Everything except the report itself must be bit-identical.
	b2 := *b
	b2.Spans = nil
	if !reflect.DeepEqual(a, &b2) {
		t.Errorf("span recording perturbed the run:\n  off: %+v\n  on:  %+v", a, &b2)
	}
}

// TestServeSpansDeterminism pins the report itself: two same-seed runs with
// spans on must produce deeply equal Results, span report included.
func TestServeSpansDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Spans = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("span reports differ across same-seed runs:\n  a: %+v\n  b: %+v", a.Spans, b.Spans)
	}
}

// TestServeSpansConservation runs spans under every adversarial mode the
// simulator has — deferred reclamation with a starved sweeper (allocation
// tax mid-phase), fault plans and page limits (aborted sessions), tenants
// with a mid-run resize (migration pauses) — and relies on Run failing if
// any completed request's phases do not sum exactly to its latency, or if
// the span events it exported to a ring that dropped nothing disagree with
// the records (checkExport). On top of that it checks the report accounted
// for every completed session.
func TestServeSpansConservation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"baseline", func(c *Config) {}},
		{"deferred-tax", func(c *Config) {
			// Saturating load: no idle gaps, so debt drains only through the
			// allocation tax and the mid-phase carve-out is exercised.
			c.Rate = 20000
			c.DeferredDelete = true
			c.SweepBudget = 1
			c.SweepHighWater = 1
		}},
		{"faults", func(c *Config) {
			c.FaultPlan = &mem.FaultPlan{FailProb: 0.3, Seed: 7}
			c.PageLimit = 64
		}},
		{"resize-tenants", func(c *Config) {
			c.Tenants = 8
			c.ResizeTo = 6
			c.DeferredDelete = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.SpanTracer = trace.New(16*cfg.Sessions + 1024)
			tc.mod(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			rep := res.Spans
			if rep == nil {
				t.Fatal("no span report")
			}
			if d := cfg.SpanTracer.Stats().Dropped; d != 0 {
				t.Fatalf("ring dropped %d events, so Run checked no export", d)
			}
			if uint64(rep.Requests) != res.Completed {
				t.Fatalf("report covers %d requests, run completed %d", rep.Requests, res.Completed)
			}
			// Each slow request's published breakdown must itself conserve.
			for _, sr := range rep.SlowRequests {
				var sum uint64
				for _, c := range sr.PhaseCycles {
					sum += c
				}
				if sum != sr.LatencyCycles {
					t.Errorf("slow request %d: phases sum to %d, latency %d",
						sr.Session, sum, sr.LatencyCycles)
				}
			}
			if tc.name == "deferred-tax" {
				var sweep uint64
				for _, p := range rep.Phases {
					if p.Phase == "sweep" {
						sweep = p.TotalCycles
					}
				}
				if sweep == 0 {
					t.Error("starved-sweeper run attributed no cycles to the sweep phase")
				}
			}
		})
	}
}

// TestServeSpansReportShape checks the report surface: schema tag, one row
// per span kind in report order, slowest-first ordering, the TopSlow cap,
// and the per-phase histogram + SLO-miss metric series.
func TestServeSpansReportShape(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := testConfig()
	cfg.Spans = true
	cfg.TopSlow = 3
	cfg.SLOP99 = 1 // every completed request misses
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Spans
	if rep.Schema != "regions/serve-spans/v2" {
		t.Errorf("schema = %q", rep.Schema)
	}
	kinds := trace.SpanKinds()
	if len(rep.Phases) != len(kinds) {
		t.Fatalf("%d phase rows, want %d", len(rep.Phases), len(kinds))
	}
	for i, k := range kinds {
		if rep.Phases[i].Phase != k.String() {
			t.Errorf("phase row %d = %q, want %q", i, rep.Phases[i].Phase, k)
		}
	}
	if len(rep.SlowRequests) != 3 {
		t.Fatalf("TopSlow=3 returned %d slow requests", len(rep.SlowRequests))
	}
	for i := 1; i < len(rep.SlowRequests); i++ {
		if rep.SlowRequests[i].LatencyCycles > rep.SlowRequests[i-1].LatencyCycles {
			t.Errorf("slow requests not sorted: %d after %d",
				rep.SlowRequests[i].LatencyCycles, rep.SlowRequests[i-1].LatencyCycles)
		}
	}
	snap := reg.Snapshot()
	if v, ok := snap.Counter("regions_serve_slo_miss_total"); !ok || v != uint64(res.Completed) {
		t.Errorf("slo_miss_total = %d (present %v), want %d", v, ok, res.Completed)
	}
	found := false
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, `regions_serve_phase_cycles{phase=`) && h.Count > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no populated regions_serve_phase_cycles series in the registry")
	}
}

// TestServeSpansExternalTracer checks a caller-supplied ring implies Spans
// and receives the raw event stream (the regiontrace -spans path).
func TestServeSpansExternalTracer(t *testing.T) {
	cfg := testConfig()
	cfg.Sessions = 120
	cfg.SpanTracer = trace.New(1 << 16)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == nil {
		t.Fatal("SpanTracer did not imply Spans")
	}
	p, err := trace.BuildSpanProfile(cfg.SpanTracer.Events(), cfg.SpanTracer.Stats().Dropped)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}
	if uint64(len(p.Requests)) != res.Completed {
		t.Fatalf("external ring saw %d requests, run completed %d", len(p.Requests), res.Completed)
	}
}

// TestServeSpansExactAtAnyRingSize runs the golden configurations with a
// 500-event ring, far too small for any of them: Result.Spans must equal
// the report of the same run without a ring, every completed request
// counted.
func TestServeSpansExactAtAnyRingSize(t *testing.T) {
	for _, c := range goldenRuns() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Spans = true
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SpanTracer = trace.New(500)
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.SpanTracer.Stats().Dropped == 0 {
				t.Fatal("the ring dropped nothing; the run is too small for this test")
			}
			if uint64(got.Spans.Requests) != got.Completed {
				t.Errorf("report covers %d requests, run completed %d", got.Spans.Requests, got.Completed)
			}
			if !reflect.DeepEqual(got.Spans, want.Spans) {
				t.Errorf("report with a small ring:\n%+v\nwithout one:\n%+v", got.Spans, want.Spans)
			}
		})
	}
}

// TestSpanRecordChecks feeds the report and the export check records that
// are wrong on purpose: a request whose phases do not sum to its latency
// fails the report, and a ring that disagrees with the records fails the
// check.
func TestSpanRecordChecks(t *testing.T) {
	newDone := func() []*session {
		var done []*session
		for id, arrival := range []uint64{10, 40} {
			s := &session{id: id, arrival: arrival, shard: 1, outcome: outcomeOK,
				rec: &phaseRecord{segs: []phaseSeg{
					{kind: trace.SpanParse, cycles: 30, tax: 5},
					{kind: trace.SpanDelete, cycles: 8},
				}}}
			s.rec.settle(s, 0, 45)
			s.latency = 45 + 38 - arrival
			done = append(done, s)
		}
		return done
	}
	done := newDone()
	if _, err := buildSpanReport(done, 5); err != nil {
		t.Fatalf("consistent records: %v", err)
	}
	tr := trace.New(64)
	exportSpans(tr, done)
	if err := checkExport(tr, done); err != nil {
		t.Fatalf("an export of the records: %v", err)
	}

	done[1].latency++
	if _, err := buildSpanReport(done, 5); err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Errorf("a leaky record: err = %v, want a conservation violation", err)
	}
	if err := checkExport(tr, done); err == nil {
		t.Error("a ring that disagrees with the records passed the check")
	}
	bad := newDone()
	bad[0].rec.phases[trace.SpanParse]--
	bad[0].rec.phases[trace.SpanWork]++
	if err := checkExport(tr, bad); err == nil {
		t.Error("a ring with another phase split passed the check")
	}
}
