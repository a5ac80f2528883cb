package serve

import (
	"cmp"
	"fmt"
	"slices"

	"regions/internal/trace"
)

// Request-level span accounting for the serving simulator (Config.Spans):
// the layer that turns "p999 is 130k cycles" into "90k was queue wait, 25k
// the work phase, 10k sweep tax". docs/OBSERVABILITY.md documents the
// schema.
//
// Every admitted session keeps one phaseRecord, in a slice indexed by
// session id that exists only under Spans. Inside its task, lifecycle
// cuts phase boundaries on the shard's raw clock, each cut closing the
// segment the previous one opened, so the segments tile the in-task window.
// At completion, settle places the service on the modelled timeline and
// sums the queue wait and the segments into the request's phases, which
// therefore add up exactly to its latency; Run fails on a request whose
// phases do not. Result.Spans, the phase histograms and the exported span
// events all read these records, so the report is exact whatever a trace
// ring holds.
//
// Sweeping is re-attributed, not billed to the phase it interrupted.
// Idle-gap slices (serveOne's modelled-idle sweeping) are shard time:
// account subtracts them from the service. Allocation-tax slices run inside
// parse and work: each segment's tax delta, read from
// Runtime.SweepTaxCycles at the cut, counts as sweep.
//
// Span accounting charges no simulated cycles: cycle counts, latencies and
// checksums are bit-identical with Spans on or off
// (TestServeSpansChecksumParity).

// phaseSeg is one in-task segment: the raw shard cycles between two cuts,
// tax of them spent in allocation-tax sweep slices.
type phaseSeg struct {
	kind        trace.SpanKind
	cycles, tax uint64
}

// maxSegs bounds a session's segments: lifecycle cuts parse, work, delete
// and work, and serveOne the final delete.
const maxSegs = 5

// phaseRecord is one session's span account. Once settled it also carries
// what the report and the export read of the session itself.
type phaseRecord struct {
	id, shard int32
	// arrival and latency place the request on the modelled timeline;
	// sweepCycles is the idle-gap sweeping the shard ran before it.
	arrival, latency, sweepCycles uint64
	// clock and tax are the shard's raw clock and cumulative sweep-tax
	// reading at the last cut, or at admission before the first.
	clock, tax uint64
	segs       [maxSegs]phaseSeg
	nsegs      int
	// prevBusy is the shard's modelled clock before the session, where its
	// idle-gap sweep slices began.
	prevBusy uint64
	// phases is the request's cycles per span kind, set by settle.
	phases [trace.NumSpanKinds]uint64
}

// cut closes the current segment as kind on st's raw clock. On a nil
// record (Spans off) it does nothing.
func (r *phaseRecord) cut(st *shardState, kind trace.SpanKind) {
	if r == nil {
		return
	}
	clock, tax := st.env.Counters().TotalCycles(), st.env.Runtime().SweepTaxCycles()
	r.segs[r.nsegs] = phaseSeg{kind: kind, cycles: clock - r.clock, tax: tax - r.tax}
	r.nsegs++
	r.clock, r.tax = clock, tax
}

// settle places a completed session's service at start on the modelled
// timeline and computes its phases: the queue wait, then each segment's
// cycles to its kind less the tax it paid, which goes to sweep.
func (r *phaseRecord) settle(s *session, latency, prevBusy, start uint64) {
	r.id, r.shard, r.arrival, r.latency, r.sweepCycles = s.id, s.shard, s.arrival, latency, s.sweepCycles
	r.prevBusy = prevBusy
	r.phases[trace.SpanQueue] = start - s.arrival
	for _, g := range r.segs[:r.nsegs] {
		r.phases[g.kind] += g.cycles - g.tax
		r.phases[trace.SpanSweep] += g.tax
	}
}

// SpanReport is the span layer's summary in a Result: per-phase attribution
// quantiles over completed requests plus the top-K slowest requests with
// their phase breakdowns. Schema identifies the JSON layout for consumers
// (CI, A/B scripts); see docs/OBSERVABILITY.md.
type SpanReport struct {
	// Schema names this block's layout; bump on incompatible change.
	Schema string `json:"schema"`
	// Requests is the number of completed sessions (shed sessions have no
	// critical path).
	Requests int `json:"requests"`
	// Phases holds one row per span kind, in report order, with exact
	// order-statistic quantiles over all completed requests (a request that
	// skipped a phase contributes 0 to that phase's population).
	Phases []PhaseStats `json:"phases"`
	// SlowRequests is the top-K by end-to-end latency, slowest first, ties
	// by session id.
	SlowRequests []SlowRequest `json:"slowRequests"`
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

// buildSpanReport folds the completed sessions' records, in session order,
// into a SpanReport. A request whose phases do not sum to its latency is an
// accounting bug, not a property of the workload, and fails the run.
func buildSpanReport(done []phaseRecord, topK int) (*SpanReport, error) {
	slow := make([]*phaseRecord, len(done))
	for i := range done {
		r := &done[i]
		var sum uint64
		for _, c := range r.phases {
			sum += c
		}
		if sum != r.latency {
			return nil, fmt.Errorf("serve: span conservation violated: request %d phases sum to %d, latency is %d",
				r.id, sum, r.latency)
		}
		slow[i] = r
	}
	rep := &SpanReport{Schema: "regions/serve-spans/v3", Requests: len(done)}
	vals := make([]uint64, len(done))
	for _, k := range trace.SpanKinds() {
		var total uint64
		for i := range done {
			vals[i] = done[i].phases[k]
			total += vals[i]
		}
		slices.Sort(vals)
		rep.Phases = append(rep.Phases, PhaseStats{
			Phase:       k.String(),
			TotalCycles: total,
			P50:         trace.QuantileSorted(vals, 0.50),
			P99:         trace.QuantileSorted(vals, 0.99),
			P999:        trace.QuantileSorted(vals, 0.999),
			Max:         trace.QuantileSorted(vals, 1),
		})
	}
	slices.SortFunc(slow, func(a, b *phaseRecord) int {
		return cmp.Or(cmp.Compare(b.latency, a.latency), cmp.Compare(a.id, b.id))
	})
	for _, r := range slow[:min(topK, len(slow))] {
		sr := SlowRequest{Session: int(r.id), Shard: int(r.shard), LatencyCycles: r.latency,
			PhaseCycles: map[string]uint64{}}
		for _, k := range trace.SpanKinds() {
			if c := r.phases[k]; c > 0 {
				sr.PhaseCycles[k.String()] = c
			}
		}
		rep.SlowRequests = append(rep.SlowRequests, sr)
	}
	return rep, nil
}

// trackSpan is a span on a shard's own track: a window of its raw clock
// that belongs to no request.
type trackSpan struct {
	kind       trace.SpanKind
	shard      int
	begin, end uint64
}

// emitSpan writes one span, request req's or (req -1) the shard's, to t.
func emitSpan(t *trace.Tracer, kind trace.SpanKind, req, shard int, begin, end uint64) {
	t.Emit(trace.SpanBegin(kind, req, shard, begin))
	t.Emit(trace.SpanEnd(kind, req, shard, end))
}

// exportSpans writes the completed sessions' spans to t, in session order:
// the idle-gap sweep on the shard track, the queue wait, and each segment
// with its allocation tax nested at its end.
func exportSpans(t *trace.Tracer, done []phaseRecord) {
	for i := range done {
		r := &done[i]
		id, shard := int(r.id), int(r.shard)
		if r.sweepCycles > 0 {
			// The last idle-gap slice may overshoot the gap by less than one
			// slice, so this span can run slightly past the arrival instant.
			emitSpan(t, trace.SpanSweep, -1, shard, r.prevBusy, r.prevBusy+r.sweepCycles)
		}
		cur := r.arrival + r.phases[trace.SpanQueue] // the service start
		if cur > r.arrival {
			emitSpan(t, trace.SpanQueue, id, shard, r.arrival, cur)
		}
		for _, g := range r.segs[:r.nsegs] {
			end := cur + g.cycles
			t.Emit(trace.SpanBegin(g.kind, id, shard, cur))
			if g.tax > 0 {
				emitSpan(t, trace.SpanSweep, id, shard, end-g.tax, end)
			}
			t.Emit(trace.SpanEnd(g.kind, id, shard, end))
			cur = end
		}
	}
}

// checkExport rebuilds the request spans from t and checks them against
// the records they were written from, unless the ring dropped events.
func checkExport(t *trace.Tracer, done []phaseRecord) error {
	if t.Stats().Dropped > 0 {
		return nil
	}
	p, err := trace.BuildSpanProfile(t.Events(), 0)
	if err != nil {
		return fmt.Errorf("serve: span export: %w", err)
	}
	if len(p.Requests) != len(done) {
		return fmt.Errorf("serve: span export holds %d requests, %d completed", len(p.Requests), len(done))
	}
	for i, r := range p.Requests {
		if d := &done[i]; r.Request != int(d.id) || r.Shard != int(d.shard) || r.Phases != d.phases || r.Latency() != d.latency {
			return fmt.Errorf("serve: span export of request %d disagrees with its record", r.Request)
		}
	}
	return nil
}
