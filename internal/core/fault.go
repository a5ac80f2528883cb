package core

import (
	"fmt"

	"regions/internal/trace"
)

// This file is the runtime's structured failure model. The seed runtime
// reported every internal inconsistency as a bare panic("core: ...") string,
// which is undiagnosable after the fact: no address, no region, no trace.
// Every detectable fault is now a *Fault carrying kind, address, region id
// and context, emitted as a trace event (KindFault) before it unwinds, so a
// crash leaves a record in the ring buffer even when the panic message is
// lost. Out-of-memory faults additionally wrap the simulated OS's
// *mem.OOMError, so errors.Is(err, mem.ErrOutOfMemory) holds.

// FaultKind classifies a runtime fault.
type FaultKind uint8

// Fault kinds. OOM is the only recoverable kind (returned by the Try*
// allocation paths); the rest indicate a violated runtime invariant and are
// raised as panics carrying the *Fault.
const (
	// FaultOOM: the simulated OS refused pages and the allocator could not
	// satisfy the request.
	FaultOOM FaultKind = iota + 1
	// FaultRCUnderflow: a reference-count decrement found a zero count; the
	// barrier discipline was violated.
	FaultRCUnderflow
	// FaultCorruptHeader: deletion, export or import met a malformed region
	// layout — an object header naming no registered cleanup, a cyclic,
	// misaligned or unmapped page link, or an object overrunning its page
	// entry (see walk.go). Verify reports the same defects as
	// FaultInvariant.
	FaultCorruptHeader
	// FaultDeletedRegion: an operation targeted an already-deleted region.
	FaultDeletedRegion
	// FaultDanglingDestroy: a cleanup passed Destroy a pointer into a
	// deleted region.
	FaultDanglingDestroy
	// FaultStackUnderflow: PopFrame on an empty shadow stack.
	FaultStackUnderflow
	// FaultInvariant: Runtime.Verify found a heap invariant violated.
	FaultInvariant
	// FaultDetachedRegion: an operation — typically a double delete —
	// targeted a region that was deleted under Options.DeferredDelete and
	// whose pages the incremental sweeper has not yet reclaimed. The same
	// use-after-delete condition as FaultDeletedRegion, reported with the
	// state the offending pointer actually sees.
	FaultDetachedRegion
	// FaultMigratedRegion: an operation used a stale handle to a region
	// that Runtime.ExportRegion handed off to another runtime. The export
	// tombstone keeps the handle faulting here instead of silently touching
	// recycled pages; the live region is the handle ImportRegion returned on
	// the receiving runtime.
	FaultMigratedRegion
	// FaultBadArgument: a call was made with an argument no correct
	// program passes — an allocator's negative size or element count, a
	// cleanup id this runtime never registered, or an unaligned or unmapped
	// address for a load, store or barrier (then Err is the
	// mem.AccessError). It is reported before anything is charged or
	// changed.
	FaultBadArgument
)

var faultNames = map[FaultKind]string{
	FaultOOM:             "oom",
	FaultRCUnderflow:     "rc-underflow",
	FaultCorruptHeader:   "corrupt-header",
	FaultDeletedRegion:   "deleted-region",
	FaultDanglingDestroy: "dangling-destroy",
	FaultStackUnderflow:  "stack-underflow",
	FaultInvariant:       "invariant",
	FaultDetachedRegion:  "detached-region",
	FaultMigratedRegion:  "migrated-region",
	FaultBadArgument:     "bad-argument",
}

// String returns the fault kind's kebab-case name (also the trace event's
// Site).
func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return "invalid"
}

// Fault is one structured runtime fault.
type Fault struct {
	Kind    FaultKind
	Addr    Ptr    // faulting heap address, or 0
	Region  int32  // region id involved, or -1
	Context string // operation context ("ralloc", "verify: ...", ...)
	Err     error  // underlying cause (*mem.OOMError for FaultOOM), or nil
}

// Error implements error.
func (f *Fault) Error() string {
	s := "core: " + f.Kind.String()
	if f.Region >= 0 {
		s += fmt.Sprintf(" region#%d", f.Region)
	}
	if f.Addr != 0 {
		s += fmt.Sprintf(" at %#x", f.Addr)
	}
	if f.Context != "" {
		s += ": " + f.Context
	}
	if f.Err != nil {
		s += ": " + f.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *Fault) Unwrap() error { return f.Err }

// fault builds a *Fault and emits it on the trace before the caller unwinds
// (or returns it), so the event precedes any crash in the recorded stream.
// Tracing charges no simulated cycles.
func (rt *Runtime) fault(kind FaultKind, addr Ptr, region int32, ctx string, err error) *Fault {
	f := &Fault{Kind: kind, Addr: addr, Region: region, Context: ctx, Err: err}
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindFault, Addr: addr,
			Region: region, Aux: int32(kind), Site: kind.String()})
	}
	return f
}

// oomFault wraps the space's most recent refused mapping as a FaultOOM for
// the allocation operation op.
func (rt *Runtime) oomFault(op string, region int32) *Fault {
	return rt.fault(FaultOOM, 0, region, op, rt.space.OOM("core: "+op))
}
