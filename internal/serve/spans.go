package serve

import (
	"fmt"
	"slices"

	"regions/internal/trace"
)

// Request-level span tracing for the serving simulator (Config.Spans): the
// layer that turns "p999 is 130k cycles" into "90k was queue wait, 25k the
// work phase, 10k sweep tax". docs/OBSERVABILITY.md documents the schema.
//
// Recording happens in two clock domains. Inside a session's task, lifecycle
// cuts phase boundaries on the shard's raw cycle clock (phaseSeg); those
// segments are contiguous by construction — each cut is the next one's
// start — and tile the whole in-task window. complete() then transplants
// them onto the modelled serving timeline: the session's service starts at
// max(arrival, the shard's previous completion), so each raw segment
// reappears at start + its in-task offset, preceded by a queue span covering
// [arrival, start]. Because the segments tile the service window and the
// queue span tiles the wait, every completed request satisfies the
// conservation property — phase self-cycles sum exactly to end-to-end
// latency — and Run enforces it (trace.SpanProfile.Conserved) before
// reporting.
//
// Two kinds of sweeping are re-attributed rather than billed to the phase
// they interrupted:
//
//   - Idle-gap slices (serveOne's modelled-idle sweeping) are shard time,
//     not session time: they surface as shard-track sweep spans starting at
//     the shard's previous completion, and complete() already subtracts
//     their cycles from the session's service.
//   - Allocation-tax slices (core's acquirePages above the high-water mark)
//     run inside a session's parse/work phases: each segment's tax delta —
//     read from Runtime.SweepTaxCycles at the cut — is carved out as a sweep
//     span nested at the segment's end, so the interrupted phase reports its
//     own cycles and the tax reports as sweep, with the sum preserved.
//
// Span recording is host-side observability: it charges no simulated
// cycles, so cycle counts, latencies, and checksums are bit-identical with
// Spans on or off (TestServeSpansChecksumParity pins this).

// phaseSeg is one in-task phase boundary: everything on the shard's raw
// clock since the previous cut (or the segment base) belongs to kind.
type phaseSeg struct {
	kind trace.SpanKind
	end  uint64 // raw shard clock at the boundary
	tax  uint64 // cumulative Runtime.SweepTaxCycles at the boundary
}

// cut records a phase boundary for s on st's raw clock. Callers nil-check
// sv.spanT, so untraced runs pay one predicate per boundary.
func (sv *server) cut(st *shardState, s *session, kind trace.SpanKind) {
	s.segs = append(s.segs, phaseSeg{
		kind: kind,
		end:  st.env.Counters().TotalCycles(),
		tax:  st.env.Runtime().SweepTaxCycles(),
	})
}

// emitSessionSpans renders one completed session's spans onto the modelled
// timeline and observes the per-phase histograms. Runs in complete(), on
// the shard goroutine, for outcomeOK sessions only; prevBusy is the shard's
// modelled clock before this session (where its idle gap began), start and
// completion the session's modelled service window.
func (sv *server) emitSessionSpans(st *shardState, s *session, prevBusy, start, completion uint64) {
	t := sv.spanT
	// The idle-gap sweep slices ran on the shard between the previous
	// completion and this arrival; they belong to the shard track. The last
	// slice may overshoot the gap by less than one slice (serveOne's loop),
	// in which case the span runs slightly past the arrival instant.
	if s.sweepCycles > 0 {
		t.Emit(trace.SpanBegin(trace.SpanSweep, -1, st.id, prevBusy))
		t.Emit(trace.SpanEnd(trace.SpanSweep, -1, st.id, prevBusy+s.sweepCycles))
	}
	phases := make([]uint64, trace.NumSpanKinds)
	if start > s.arrival {
		t.Emit(trace.SpanBegin(trace.SpanQueue, s.id, st.id, s.arrival))
		t.Emit(trace.SpanEnd(trace.SpanQueue, s.id, st.id, start))
		phases[trace.SpanQueue] = start - s.arrival
	}
	cur := start
	prevEnd, prevTax := s.segBase, s.taxBase
	for _, seg := range s.segs {
		d := seg.end - prevEnd
		taxD := seg.tax - prevTax
		segEnd := cur + d
		t.Emit(trace.SpanBegin(seg.kind, s.id, st.id, cur))
		if taxD > 0 {
			// The allocation tax interrupted this phase: nest its cycles as a
			// sweep span at the segment's end, so self-times re-attribute the
			// tax without perturbing the sum.
			t.Emit(trace.SpanBegin(trace.SpanSweep, s.id, st.id, segEnd-taxD))
			t.Emit(trace.SpanEnd(trace.SpanSweep, s.id, st.id, segEnd))
		}
		t.Emit(trace.SpanEnd(seg.kind, s.id, st.id, segEnd))
		phases[seg.kind] += d - taxD
		phases[trace.SpanSweep] += taxD
		cur = segEnd
		prevEnd, prevTax = seg.end, seg.tax
	}
	if sv.phaseHist != nil {
		for _, k := range trace.SpanKinds() {
			sv.phaseHist[k].Observe(phases[k])
		}
	}
}

// SpanReport is the span layer's summary in a Result: per-phase attribution
// quantiles over completed requests plus the top-K slowest requests with
// their phase breakdowns. Schema identifies the JSON layout for consumers
// (CI, A/B scripts); see docs/OBSERVABILITY.md.
type SpanReport struct {
	// Schema names this block's layout; bump on incompatible change.
	Schema string `json:"schema"`
	// Requests is the number of requests the spans reconstructed (completed
	// sessions; shed sessions have no critical path).
	Requests int `json:"requests"`
	// Phases holds one row per span kind, in report order, with exact
	// order-statistic quantiles over all reconstructed requests (a request
	// that skipped a phase contributes 0 to that phase's population).
	Phases []PhaseStats `json:"phases"`
	// SlowRequests is the top-K by end-to-end latency, slowest first.
	SlowRequests []SlowRequest `json:"slowRequests"`
	// DroppedEvents is the span ring's overwrite count; when nonzero the
	// attribution is a truncated window and Truncated is set (conservation
	// is not enforced over a truncated stream).
	DroppedEvents uint64 `json:"droppedEvents"`
	Truncated     bool   `json:"truncated,omitempty"`
}

// PhaseStats is one phase's attribution row.
type PhaseStats struct {
	Phase       string `json:"phase"`
	TotalCycles uint64 `json:"totalCycles"`
	P50         uint64 `json:"p50Cycles"`
	P99         uint64 `json:"p99Cycles"`
	P999        uint64 `json:"p999Cycles"`
	Max         uint64 `json:"maxCycles"`
}

// SlowRequest is one slow request's phase breakdown.
type SlowRequest struct {
	Session       int               `json:"session"`
	Shard         int               `json:"shard"`
	LatencyCycles uint64            `json:"latencyCycles"`
	PhaseCycles   map[string]uint64 `json:"phaseCycles"`
}

// buildSpanReport folds the span stream into a SpanReport, enforcing the
// conservation property on untruncated streams: a request whose phases do
// not sum to its latency is an emitter bug and fails the run.
func buildSpanReport(t *trace.Tracer, topK int) (*SpanReport, error) {
	dropped := t.Stats().Dropped
	p, err := trace.BuildSpanProfile(t.Events(), dropped)
	if err != nil {
		return nil, fmt.Errorf("serve: span reconstruction: %w", err)
	}
	if !p.Truncated {
		if err := p.Conserved(); err != nil {
			return nil, fmt.Errorf("serve: span conservation violated: %w", err)
		}
	}
	rep := &SpanReport{
		Schema:        "regions/serve-spans/v1",
		Requests:      len(p.Requests),
		DroppedEvents: dropped,
		Truncated:     p.Truncated,
	}
	for _, k := range trace.SpanKinds() {
		vals := p.PhaseValues(k) // a fresh slice: sort it in place
		slices.Sort(vals)
		rep.Phases = append(rep.Phases, PhaseStats{
			Phase:       k.String(),
			TotalCycles: p.PhaseTotals[k],
			P50:         trace.QuantileSorted(vals, 0.50),
			P99:         trace.QuantileSorted(vals, 0.99),
			P999:        trace.QuantileSorted(vals, 0.999),
			Max:         trace.QuantileSorted(vals, 1),
		})
	}
	for _, r := range p.Slowest(topK) {
		sr := SlowRequest{
			Session:       r.Request,
			Shard:         r.Shard,
			LatencyCycles: r.Latency(),
			PhaseCycles:   map[string]uint64{},
		}
		for _, k := range trace.SpanKinds() {
			if c := r.Phases[k]; c > 0 {
				sr.PhaseCycles[k.String()] = c
			}
		}
		rep.SlowRequests = append(rep.SlowRequests, sr)
	}
	return rep, nil
}
