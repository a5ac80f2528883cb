// Package trace is the event-level observability layer of the region
// runtime: a fixed-size ring buffer of typed events emitted by the safe
// region runtime (internal/core), the conservative collector (internal/gc),
// and the parallel extension, behind a nil-checked hook so that a runtime
// without a tracer pays one predicate per operation and nothing else.
//
// The aggregate counters of internal/stats reproduce the paper's evaluation
// (Tables 2-3, Figures 9-11) and are the only source of totals; this
// package records the individual events those counters summarize — who
// allocated, which barrier fired, when a region died and, when it could not
// die, why. A ring keeps only the newest events, so it is an export, never
// a count: on top of the buffer sit a JSONL sink (WriteJSONL), a Chrome
// trace_event exporter (WriteChromeTrace), and the request-span analysis
// (BuildSpanProfile, span.go). docs/OBSERVABILITY.md documents the schema;
// cmd/regionstat's -events, -jsonl and -chrome drive the sinks against the
// benchmark applications.
//
// Tracing never charges simulated cycles: events are observability metadata,
// outside the machine model, so a traced run reports the same counters as an
// untraced one.
package trace

import "sync"

// Kind identifies an event type. The zero value is invalid so that a
// forgotten Kind is visible in traces.
type Kind uint8

// Event kinds. The names returned by String (and used by the JSONL sink)
// are the kebab-case forms documented in docs/OBSERVABILITY.md.
const (
	KindInvalid Kind = iota

	// Region lifecycle (internal/core).
	KindRegionCreate     // a region was created
	KindRegionDelete     // a region was deleted; always the region's last event
	KindRegionDeleteFail // deleteregion refused: external references remain

	// Allocation (internal/core). Site carries the cleanup's registered
	// name for ralloc/rarrayalloc; rstralloc has no cleanup and no site.
	KindRalloc      // ralloc: cleared, scanned at deletion
	KindRarrayAlloc // rarrayalloc: cleared array, per-element cleanup
	KindRstrAlloc   // rstralloc: pointer-free, no bookkeeping

	// Pointer-write barriers (internal/core). Exactly one event per
	// barriered store, split as the paper splits them: global writes,
	// region writes, and region writes whose count update was elided by
	// the sameregion optimization.
	KindBarrierGlobal // StoreGlobalPtr fired
	KindBarrierRegion // StorePtr fired, counts possibly updated
	KindBarrierElided // StorePtr fired, sameregion: no count update for val

	// Deferred local-variable counting (internal/core).
	KindStackScan   // one frame's slots added to region counts
	KindStackUnscan // one frame's contributions removed

	// Region deletion detail (internal/core).
	KindCleanup // one object's cleanup ran during deleteregion
	KindDestroy // a cleanup called Destroy on a region pointer

	// Collector phases (internal/gc).
	KindGCMarkBegin
	KindGCMarkEnd
	KindGCSweepBegin
	KindGCSweepEnd

	// Parallel extension (internal/core's ParWorld).
	KindParRegionCreate
	KindParRegionDelete
	KindParRegionDeleteFail
	KindParWrite // one atomic-exchange pointer write by a worker

	// Faults (internal/core, internal/gc). Emitted immediately before a
	// typed fault unwinds (or an OOM error returns), so a crashing run
	// leaves a diagnosable trace: Site carries the fault kind's name, Aux
	// its numeric code, Addr and Region the faulting location.
	KindFault

	// Deferred reclamation (internal/core, Options.DeferredDelete). One
	// event per sweep slice that retired pages: Size is the pages poisoned,
	// Aux the sweep debt remaining after the slice.
	KindSweepSlice

	// Region migration (internal/core, Runtime.ExportRegion/ImportRegion).
	// Emitted on both sides of a handoff: Size is the page count moved, Aux
	// is 0 for the export (region leaving this runtime) and 1 for the import
	// (region arriving), Region the local region id on that side.
	KindMigrate

	// Request-level spans (internal/serve, internal/core).
	// A span is a begin/end event pair bracketing one phase of work: Aux is
	// the SpanKind, Region the shard id the span runs on (-1 for a
	// single-runtime trace), Addr the request id plus one (0 when the span
	// belongs to the shard itself rather than a request — an idle sweep, a
	// migration pause). Spans on one (Region, Addr) key nest LIFO; see
	// span.go for the analyzer and docs/OBSERVABILITY.md for the invariants.
	KindSpanBegin
	KindSpanEnd

	// Pooled string free (internal/core, Runtime.RstrFree): the explicit
	// release of one rstralloc block back to its region's capacity-class
	// pool. Addr is the block, Size its aligned capacity, Aux 1 when the
	// block was pooled for reuse and 0 when it fell outside the pool
	// (pooling disabled or above the class ceiling).
	KindRstrFree

	numKinds
)

var kindNames = [numKinds]string{
	KindInvalid:             "invalid",
	KindRegionCreate:        "region-create",
	KindRegionDelete:        "region-delete",
	KindRegionDeleteFail:    "region-delete-fail",
	KindRalloc:              "ralloc",
	KindRarrayAlloc:         "rarray-alloc",
	KindRstrAlloc:           "rstr-alloc",
	KindBarrierGlobal:       "barrier-global",
	KindBarrierRegion:       "barrier-region",
	KindBarrierElided:       "barrier-elided",
	KindStackScan:           "stack-scan",
	KindStackUnscan:         "stack-unscan",
	KindCleanup:             "cleanup",
	KindDestroy:             "destroy",
	KindGCMarkBegin:         "gc-mark-begin",
	KindGCMarkEnd:           "gc-mark-end",
	KindGCSweepBegin:        "gc-sweep-begin",
	KindGCSweepEnd:          "gc-sweep-end",
	KindParRegionCreate:     "par-region-create",
	KindParRegionDelete:     "par-region-delete",
	KindParRegionDeleteFail: "par-region-delete-fail",
	KindParWrite:            "par-write",
	KindFault:               "fault",
	KindSweepSlice:          "sweep-slice",
	KindMigrate:             "migrate",
	KindSpanBegin:           "span-begin",
	KindSpanEnd:             "span-end",
	KindRstrFree:            "rstr-free",
}

// String returns the kebab-case event name used throughout the sinks.
func (k Kind) String() string {
	if k >= numKinds {
		return "invalid"
	}
	return kindNames[k]
}

// Event is one runtime event. Emitters fill Kind and the kind-specific
// fields; the Tracer assigns Seq and Cycle. Field meanings per kind are
// documented in docs/OBSERVABILITY.md; unused numeric fields are -1 (Region,
// Aux) or 0 (Addr, Size).
type Event struct {
	// Seq is the event's position in the tracer's total emission order,
	// starting at 0. Seq is assigned under the tracer's lock, so it is a
	// total order even when ParWorld workers emit concurrently.
	Seq uint64
	// Cycle is the simulated-machine clock at emission: the run's total
	// modelled cycles (stats.Counters.TotalCycles) if the tracer is
	// attached to a runtime, else 0.
	Cycle uint64
	// Kind is the event type.
	Kind Kind
	// Region is the id of the region the event concerns, or -1.
	Region int32
	// Addr is the simulated address the event concerns (an object for
	// allocation and cleanup events, a slot for barriers), or 0.
	Addr uint32
	// Size is a byte count: data bytes for allocations and cleanups, the
	// region's total bytes for region-delete, live bytes for gc-sweep-end.
	Size int32
	// Aux is kind-specific: element count for rarray-alloc, the old target
	// region for barriers, slot count for stack scans, the reference count
	// for region-delete-fail, the worker id for par-write, the collection
	// ordinal for gc phases. -1 when unused.
	Aux int32
	// Site is the allocation/cleanup site label: the registered cleanup
	// name for ralloc, rarray-alloc, and cleanup events; empty otherwise.
	Site string
}

// Tracer is a fixed-capacity ring buffer of events. When the buffer is
// full the oldest events are overwritten and counted in Dropped, so a
// tracer is safe to leave attached to an arbitrarily long run.
//
// Emit is safe for concurrent use (ParWorld workers share one tracer);
// attaching a tracer or setting its clock must happen before the emitters
// start.
type Tracer struct {
	mu      sync.Mutex
	clock   func() uint64
	buf     []Event
	next    int // index of the next write
	full    bool
	seq     uint64
	dropped uint64
}

// DefaultCapacity is the event capacity used when New is given a
// non-positive one.
const DefaultCapacity = 1 << 16

// New returns a tracer holding the last capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// SetClock sets the timestamp source for subsequent events. The region
// runtime and the collector install their counter's TotalCycles on
// attachment if no clock is set.
func (t *Tracer) SetClock(fn func() uint64) {
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// InitClock installs fn as the clock only if none is set yet, so a clock
// chosen by the user survives runtime attachment.
func (t *Tracer) InitClock(fn func() uint64) {
	t.mu.Lock()
	if t.clock == nil {
		t.clock = fn
	}
	t.mu.Unlock()
}

// Emit appends ev to the buffer, assigning its Seq and — when the tracer
// has a clock — its Cycle. On a clock-less tracer a Cycle set by the caller
// survives, which is how span emitters stamp events with a clock of their
// own (the serving simulator's modelled timeline, a shard's local cycle
// count) on one shared tracer. The oldest event is overwritten when the
// buffer is full.
func (t *Tracer) Emit(ev Event) {
	t.mu.Lock()
	ev.Seq = t.seq
	t.seq++
	if t.clock != nil {
		ev.Cycle = t.clock()
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.full = true
		t.dropped++
	}
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Events returns the buffered events oldest-to-newest. The slice is a copy;
// the tracer keeps running.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Emitted returns the total number of events ever emitted.
func (t *Tracer) Emitted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Stats is one consistent reading of the tracer's own health: how many
// events it has emitted, how many the ring currently holds, and how many
// were lost to wraparound. Metrics exporters publish these as gauges so a
// scrape of a traced run shows whether the ring is keeping up.
type Stats struct {
	Emitted  uint64
	Buffered int
	Dropped  uint64
}

// Stats returns the tracer's counters in one locked read, unlike calling
// Emitted, Len, and Dropped separately while emitters are running.
func (t *Tracer) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Emitted: t.seq, Buffered: len(t.buf), Dropped: t.dropped}
}

// Reset discards all buffered events and the drop count; Seq keeps
// increasing so event identities stay unique across resets.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.full = false
	t.dropped = 0
	t.mu.Unlock()
}
