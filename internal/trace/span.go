package trace

import (
	"fmt"
	"slices"
	"sort"
)

// Request-level span tracing: the layer that turns "p999 is 130k cycles"
// into "90k of it was queue wait and 30k was the work phase". A span is a
// KindSpanBegin/KindSpanEnd event pair bracketing one phase of work. The
// emitters stamp both ends with the relevant clock: internal/serve writes
// a run's spans from its records once the run is over — each completed
// request's phases, idle sweeps, migration pauses and close-time drains —
// and internal/core brackets sweep-tax slices live. BuildSpanProfile folds
// the pairs back into per-request critical paths.
//
// The contract that makes the attribution trustworthy is conservation: for
// every request, the self cycles of its spans (a span's duration minus any
// spans nested inside it) sum exactly to its end-to-end latency — the span
// of [first begin, last end]. There is no "other" bucket; a gap or an
// overlap is an emitter bug, and Conserved reports it instead of letting a
// plausible-but-wrong table stand. When the ring dropped events the pairs
// may be truncated, so the profile is marked Truncated: it describes the
// window the ring kept, and Conserved refuses to judge it.

// SpanKind identifies the phase a span attributes its cycles to. The zero
// value is invalid so a forgotten kind is visible in traces.
type SpanKind uint8

const (
	SpanInvalid SpanKind = iota
	// SpanQueue is admission-to-service wait in the modelled per-shard queue.
	SpanQueue
	// SpanParse is the request's parse phase: the short-lived request region
	// and its allocation mix.
	SpanParse
	// SpanWork is the request's work phase: the longer-lived work region,
	// its allocations, the pointer-store loop, and any tenant-state append.
	SpanWork
	// SpanDelete is region deletion: the synchronous walk, or the O(1)
	// detach under deferred reclamation, plus request teardown.
	SpanDelete
	// SpanSweep is deferred reclamation: idle-gap sweep slices on the shard
	// track, and the allocation-tax slices carved out of a request's
	// allocation phases.
	SpanSweep
	// SpanMigrate is a region migration pause: the export or import task's
	// cycle window on the shard that ran it.
	SpanMigrate

	numSpanKinds
)

// NumSpanKinds is the array size that indexes by SpanKind (valid kinds are
// 1..NumSpanKinds-1), for callers keeping per-kind tallies.
const NumSpanKinds = int(numSpanKinds)

var spanKindNames = [numSpanKinds]string{
	SpanInvalid: "invalid",
	SpanQueue:   "queue",
	SpanParse:   "parse",
	SpanWork:    "work",
	SpanDelete:  "delete",
	SpanSweep:   "sweep",
	SpanMigrate: "migrate",
}

// String returns the kebab-case phase name used in reports and metric
// labels.
func (k SpanKind) String() string {
	if k >= numSpanKinds {
		return "invalid"
	}
	return spanKindNames[k]
}

// SpanKinds returns the valid span kinds in report order.
func SpanKinds() []SpanKind {
	out := make([]SpanKind, 0, numSpanKinds-1)
	for k := SpanKind(1); k < numSpanKinds; k++ {
		out = append(out, k)
	}
	return out
}

// SpanBegin and SpanEnd build the event halves of a span. The caller
// emits them on a tracer, stamping Cycle itself when the tracer is
// clock-less: req is the request id (-1 for a shard-level span), shard the
// shard id (-1 for a single-runtime trace).
func SpanBegin(kind SpanKind, req, shard int, cycle uint64) Event {
	return spanEvent(KindSpanBegin, kind, req, shard, cycle)
}

// SpanEnd is SpanBegin's closing half.
func SpanEnd(kind SpanKind, req, shard int, cycle uint64) Event {
	return spanEvent(KindSpanEnd, kind, req, shard, cycle)
}

func spanEvent(ek Kind, kind SpanKind, req, shard int, cycle uint64) Event {
	return Event{Kind: ek, Aux: int32(kind), Region: int32(shard),
		Addr: uint32(req + 1), Cycle: cycle}
}

// Span is one reconstructed begin/end pair.
type Span struct {
	Kind    SpanKind
	Request int // request id, or -1 for a shard-level span
	Shard   int // shard id, or -1
	Begin   uint64
	End     uint64
	// Self is the span's own cycles: End-Begin minus the durations of spans
	// nested inside it, so a phase that paid a sweep tax mid-allocation
	// attributes those cycles to sweep, not to itself.
	Self uint64
}

// RequestSpans is one request's reconstructed critical path.
type RequestSpans struct {
	Request int
	Shard   int // shard of the request's first span
	Start   uint64
	End     uint64
	// Phases sums each kind's self cycles over the request's spans.
	Phases [numSpanKinds]uint64
	Spans  []Span
}

// Latency is the request's end-to-end span in cycles.
func (r *RequestSpans) Latency() uint64 { return r.End - r.Start }

// PhaseSum sums the request's attributed phase cycles — the quantity
// conservation pins to Latency.
func (r *RequestSpans) PhaseSum() uint64 {
	var sum uint64
	for _, c := range r.Phases {
		sum += c
	}
	return sum
}

// SpanProfile is the analysis of one span stream: per-request critical
// paths plus the shard-level spans that belong to no request.
type SpanProfile struct {
	// Requests holds one entry per request id seen, sorted by id.
	Requests []*RequestSpans
	// Track holds the shard-level spans (idle sweeps, migration pauses,
	// close-time drains), in stream order.
	Track []Span
	// PhaseTotals sums self cycles per kind over all request spans.
	PhaseTotals [numSpanKinds]uint64
	// TrackTotals sums self cycles per kind over shard-level spans.
	TrackTotals [numSpanKinds]uint64
	// Dropped is the ring's drop count at extraction; Truncated is set when
	// it is nonzero or any span failed to match, meaning the attribution is
	// a window, not the whole run.
	Dropped   uint64
	Truncated bool
	// Unmatched counts begin events without an end (or vice versa) — the
	// visible footprint of a truncated ring.
	Unmatched int
}

// spanKey identifies one nesting stack: spans nest LIFO per (shard,
// request) pair.
type spanKey struct {
	shard int32
	addr  uint32
}

type openSpan struct {
	kind   SpanKind
	begin  uint64
	nested uint64 // total duration of spans closed inside this one
}

// BuildSpanProfile folds span events (oldest first, as returned by
// Tracer.Events) into a SpanProfile; non-span events are ignored, so a
// mixed stream works. dropped is the tracer's drop count: when nonzero the
// profile is marked Truncated and unmatched pairs are counted rather than
// treated as errors. A begin/end mismatch on an untruncated stream is an
// emitter bug and returns an error.
func BuildSpanProfile(events []Event, dropped uint64) (*SpanProfile, error) {
	p := &SpanProfile{Dropped: dropped, Truncated: dropped > 0}
	open := map[spanKey][]openSpan{}
	reqs := map[int]*RequestSpans{}

	record := func(s Span) {
		if s.Request < 0 {
			p.Track = append(p.Track, s)
			p.TrackTotals[s.Kind] += s.Self
			return
		}
		r, ok := reqs[s.Request]
		if !ok {
			r = &RequestSpans{Request: s.Request, Shard: s.Shard, Start: s.Begin, End: s.End}
			reqs[s.Request] = r
		}
		if s.Begin < r.Start {
			r.Start = s.Begin
		}
		if s.End > r.End {
			r.End = s.End
		}
		r.Phases[s.Kind] += s.Self
		r.Spans = append(r.Spans, s)
		p.PhaseTotals[s.Kind] += s.Self
	}

	for _, ev := range events {
		if ev.Kind != KindSpanBegin && ev.Kind != KindSpanEnd {
			continue
		}
		kind := SpanKind(ev.Aux)
		if kind == SpanInvalid || kind >= numSpanKinds {
			return nil, fmt.Errorf("trace: span event seq %d has invalid span kind %d", ev.Seq, ev.Aux)
		}
		key := spanKey{shard: ev.Region, addr: ev.Addr}
		if ev.Kind == KindSpanBegin {
			open[key] = append(open[key], openSpan{kind: kind, begin: ev.Cycle})
			continue
		}
		stack := open[key]
		if len(stack) == 0 {
			if dropped == 0 {
				return nil, fmt.Errorf("trace: span-end %q at cycle %d (request %d, shard %d) without a begin",
					kind, ev.Cycle, int(ev.Addr)-1, ev.Region)
			}
			p.Unmatched++
			p.Truncated = true
			continue
		}
		top := stack[len(stack)-1]
		open[key] = stack[:len(stack)-1]
		if top.kind != kind {
			return nil, fmt.Errorf("trace: span-end %q closes span-begin %q (request %d, shard %d)",
				kind, top.kind, int(ev.Addr)-1, ev.Region)
		}
		if ev.Cycle < top.begin {
			return nil, fmt.Errorf("trace: span %q ends at cycle %d before its begin %d",
				kind, ev.Cycle, top.begin)
		}
		dur := ev.Cycle - top.begin
		self := dur - top.nested
		if top.nested > dur {
			return nil, fmt.Errorf("trace: span %q nests %d cycles inside a %d-cycle window",
				kind, top.nested, dur)
		}
		if n := len(open[key]); n > 0 {
			open[key][n-1].nested += dur
		}
		record(Span{Kind: kind, Request: int(ev.Addr) - 1, Shard: int(ev.Region),
			Begin: top.begin, End: ev.Cycle, Self: self})
	}
	for _, stack := range open {
		p.Unmatched += len(stack)
	}
	if p.Unmatched > 0 {
		p.Truncated = true
		if dropped == 0 {
			return nil, fmt.Errorf("trace: %d spans never ended in an untruncated stream", p.Unmatched)
		}
	}

	p.Requests = make([]*RequestSpans, 0, len(reqs))
	for _, r := range reqs {
		p.Requests = append(p.Requests, r)
	}
	sort.Slice(p.Requests, func(i, j int) bool { return p.Requests[i].Request < p.Requests[j].Request })
	return p, nil
}

// Conserved verifies the conservation property: every request's attributed
// phase cycles sum exactly to its end-to-end latency. It returns the first
// violating request, or nil. On a truncated profile the check is
// meaningless (spans are missing, not wrong) and Conserved says so.
func (p *SpanProfile) Conserved() error {
	if p.Truncated {
		return fmt.Errorf("trace: span stream truncated (%d events dropped, %d spans unmatched): attribution is a window, not an account",
			p.Dropped, p.Unmatched)
	}
	for _, r := range p.Requests {
		if sum, lat := r.PhaseSum(), r.Latency(); sum != lat {
			return fmt.Errorf("trace: request %d leaks cycles: phases sum to %d, end-to-end latency is %d",
				r.Request, sum, lat)
		}
	}
	return nil
}

// PhaseValues returns each request's self cycles for kind, in request-id
// order — the exact population behind the attribution quantiles.
func (p *SpanProfile) PhaseValues(kind SpanKind) []uint64 {
	out := make([]uint64, len(p.Requests))
	for i, r := range p.Requests {
		out[i] = r.Phases[kind]
	}
	return out
}

// QuantileExact returns the q-th order statistic of values (0 < q <= 1),
// exact rather than histogram-interpolated: the ceil(q*n)-th smallest
// value. Returns 0 on an empty population.
func QuantileExact(values []uint64, q float64) uint64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is QuantileExact over a population already sorted
// ascending, so a caller reading several quantiles sorts once.
func QuantileSorted(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
