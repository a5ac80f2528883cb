// Package regions is the public API of this reproduction of
//
//	David Gay and Alex Aiken, "Memory Management with Explicit Regions",
//	PLDI 1998.
//
// A System is one simulated 32-bit machine running the paper's safe
// region-based memory manager. The API mirrors the paper's C interface
// (Figure 2):
//
//	Region r = newregion();            r := sys.NewRegion()
//	ralloc(r, size, cleanup)           sys.Ralloc(r, size, cleanup)
//	rarrayalloc(r, n, size, cleanup)   sys.RarrayAlloc(r, n, size, cleanup)
//	rstralloc(r, size)                 sys.RstrAlloc(r, size)
//	regionof(x)                        sys.RegionOf(x)
//	deleteregion(&r)                   sys.DeleteRegion(r)
//
// Safety works exactly as in the paper: a region can be deleted only when
// no external references to its objects remain, enforced with region
// reference counts — exact counts for pointers stored in the heap and
// global storage (via StorePtr and StoreGlobalPtr write barriers), and
// deferred counts for local variables held in shadow-stack frames scanned
// on demand with a high-water mark. Cleanup functions let deletion adjust
// the counts of other regions (and finalize objects).
//
// Everything lives in a simulated word-addressable address space (Load and
// Store), so the package also serves as the measurement substrate for the
// paper's experiments; see internal/bench and cmd/regionbench.
package regions

import (
	"regions/internal/cachesim"
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
)

// Ptr is a pointer into a System's simulated heap; 0 is the nil pointer.
type Ptr = mem.Addr

// Word is the contents of one 32-bit heap word.
type Word = mem.Word

// Region is a region handle. As in the paper, the handle itself is not a
// counted reference; Ptr values stored in heap words and frame slots are.
type Region = core.Region

// Frame is one activation's live region-pointer variables. Keep every live
// Ptr in a frame slot, exactly as the paper's compiler records live locals
// at call sites; DeleteRegion consults them.
type Frame = core.Frame

// CleanupID names a registered cleanup function.
type CleanupID = core.CleanupID

// CleanupFunc is the paper's cleanup_t: it must call Runtime.Destroy on
// every region pointer in the object and return the object's size in bytes.
type CleanupFunc = core.CleanupFunc

// Runtime is the underlying region runtime; exposed for cleanup functions,
// which receive it as their first argument.
type Runtime = core.Runtime

// Counters are the run's statistics (allocation volumes, cycle accounting).
type Counters = stats.Counters

// --- failure model --------------------------------------------------------------

// ErrOutOfMemory is the sentinel wrapped by every allocation failure caused
// by the simulated OS refusing pages; test with errors.Is.
var ErrOutOfMemory = mem.ErrOutOfMemory

// FaultPlan is a deterministic, seeded schedule of injected page-mapping
// failures: fail the Nth mapping, fail with probability p, or fail past a
// byte budget. Install one with System.SetFaultPlan.
type FaultPlan = mem.FaultPlan

// OOMError is the typed error describing one refused page mapping; it wraps
// ErrOutOfMemory.
type OOMError = mem.OOMError

// Fault is a structured runtime fault: kind, faulting address, region id,
// and context. Recoverable faults (FaultOOM) are returned by the Try*
// methods; invariant violations are raised as panics carrying a *Fault.
// Every fault is also emitted as an EvFault trace event before it unwinds.
type Fault = core.Fault

// FaultKind classifies a Fault.
type FaultKind = core.FaultKind

// Fault kinds.
const (
	FaultOOM             = core.FaultOOM
	FaultRCUnderflow     = core.FaultRCUnderflow
	FaultCorruptHeader   = core.FaultCorruptHeader
	FaultDeletedRegion   = core.FaultDeletedRegion
	FaultDanglingDestroy = core.FaultDanglingDestroy
	FaultStackUnderflow  = core.FaultStackUnderflow
	FaultInvariant       = core.FaultInvariant
	FaultDetachedRegion  = core.FaultDetachedRegion
	FaultMigratedRegion  = core.FaultMigratedRegion
	FaultBadArgument     = core.FaultBadArgument
)

// ParWorld, ParRegion, ParWorker and ParSlot form the paper's parallel
// extension: per-worker local reference counts, atomic-exchange pointer
// writes, and globally synchronized creation and deletion.
type (
	ParWorld  = core.ParWorld
	ParRegion = core.ParRegion
	ParWorker = core.ParWorker
	ParSlot   = core.ParSlot
)

// NewParWorld creates a parallel-region world for the given worker count.
func NewParWorld(workers int) *ParWorld { return core.NewParWorld(workers) }

// System is one simulated machine with a region runtime on it.
type System struct {
	rt *core.Runtime
	sp *mem.Space
}

// Option configures a System.
type Option func(*config)

type config struct {
	unsafe         bool
	cache          bool
	deferredDelete bool
	sweepBudget    int
	sweepHighWater int
	noStrPool      bool
}

// Unsafe disables all reference counting, stack scanning, and cleanups, as
// in the paper's unsafe region library: DeleteRegion always succeeds, even
// with live external references.
func Unsafe() Option { return func(c *config) { c.unsafe = true } }

// WithCache attaches the UltraSparc-I cache model so the counters include
// read- and write-stall cycles.
func WithCache() Option { return func(c *config) { c.cache = true } }

// DeferredDelete makes DeleteRegion detach a region's pages instead of
// reclaiming them synchronously: the reference-count check, the cleanup
// walk, and the failure semantics are exactly as before, but poisoning and
// the per-page reclamation charge are left as "sweep debt" retired in
// bounded slices (SweepSlice, SweepDrain) or automatically, one slice per
// page acquisition, whenever debt exceeds the high-water mark. The
// allocation address stream is bit-identical to synchronous deletion.
func DeferredDelete() Option { return func(c *config) { c.deferredDelete = true } }

// WithSweepBudget caps the pages one sweep slice poisons (default 32). Only
// meaningful together with DeferredDelete.
func WithSweepBudget(pages int) Option { return func(c *config) { c.sweepBudget = pages } }

// WithSweepHighWater sets the sweep-debt page count above which every page
// acquisition first runs one sweep slice (default 8x the budget). Only
// meaningful together with DeferredDelete.
func WithSweepHighWater(pages int) Option { return func(c *config) { c.sweepHighWater = pages } }

// NoStrPool disables the pooled string allocator's free lists: FreeStr
// still retires a block's accounting, but the memory waits for region
// deletion instead of being parked for reuse. The escape hatch exists for
// A/B comparison — AllocStr's semantics and, for a program that never
// frees, its exact address stream are identical with pooling on or off.
func NoStrPool() Option { return func(c *config) { c.noStrPool = true } }

// New creates a System.
func New(opts ...Option) *System {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	c := &stats.Counters{}
	sp := mem.NewSpace(c)
	if cfg.cache {
		sp.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	}
	rt := core.NewRuntimeOpts(sp, core.Options{
		Safe:           !cfg.unsafe,
		DeferredDelete: cfg.deferredDelete,
		SweepBudget:    cfg.sweepBudget,
		SweepHighWater: cfg.sweepHighWater,
		NoStrPool:      cfg.noStrPool,
	})
	return &System{rt: rt, sp: sp}
}

// Safe reports whether the system maintains reference counts.
func (s *System) Safe() bool { return s.rt.Safe() }

// Counters returns the system's statistics.
func (s *System) Counters() *Counters { return s.rt.Counters() }

// MappedBytes returns the memory requested from the simulated OS so far.
func (s *System) MappedBytes() uint64 { return s.sp.MappedBytes() }

// SetPageLimit caps the 4 KB pages the simulated OS will hand out — the
// analogue of ulimit -v. 0 removes the limit.
func (s *System) SetPageLimit(pages int) { s.sp.SetPageLimit(pages) }

// SetFaultPlan installs a deterministic schedule of injected page-mapping
// failures; nil removes it. Failed operations surface as *Fault errors from
// the Try* methods (or panics from the paper-shaped methods).
func (s *System) SetFaultPlan(p *FaultPlan) { s.sp.SetFaultPlan(p) }

// Verify audits every heap invariant the runtime maintains — page
// ownership, object headers, poisoned free pages, the shadow-stack
// high-water mark, and exact reference counts recomputed from heap contents
// — returning nil or a *Fault of kind FaultInvariant. It charges no
// simulated cycles.
func (s *System) Verify() error { return s.rt.Verify() }

// --- the paper's region interface -------------------------------------------

// NewRegion creates an empty region (the paper's newregion). It panics with
// a *Fault if the simulated OS refuses memory; TryNewRegion is the graceful
// variant.
func (s *System) NewRegion() *Region { return s.rt.NewRegion() }

// TryNewRegion is NewRegion returning an error (a *Fault wrapping
// ErrOutOfMemory) instead of panicking when the simulated OS refuses
// memory.
func (s *System) TryNewRegion() (*Region, error) { return s.rt.TryNewRegion() }

// DeleteRegion attempts to delete r (the paper's deleteregion). Under a
// safe system it fails, returning false, while external references to r's
// objects remain. Deleting an already-deleted region panics with a *Fault;
// TryDeleteRegion is the graceful variant.
func (s *System) DeleteRegion(r *Region) bool { return s.rt.DeleteRegion(r) }

// TryDeleteRegion is the deletion primitive DeleteRegion derives from: it
// reports whether r was deleted, returns (false, nil) while external
// references remain, and returns (false, *Fault) — instead of panicking —
// when r was already deleted. See docs/API.md for the full error contract.
func (s *System) TryDeleteRegion(r *Region) (bool, error) { return s.rt.TryDeleteRegion(r) }

// SweepSlice retires one bounded slice of sweep debt — up to the configured
// budget of detached pages are poisoned and their deferred reclamation
// charge paid — returning the pages swept (0 when no debt remains). Only
// meaningful under DeferredDelete; without it there is never debt.
func (s *System) SweepSlice() int { return s.rt.SweepSlice() }

// SweepDrain sweeps until no debt remains and returns the pages swept.
func (s *System) SweepDrain() int { return s.rt.SweepDrain() }

// SweepDebt returns the pages deleted-but-unswept under DeferredDelete.
func (s *System) SweepDebt() int { return s.rt.SweepDebt() }

// SweepDebtPeak returns the highest sweep debt the system ever carried.
func (s *System) SweepDebtPeak() int { return s.rt.SweepDebtPeak() }

// ResetSweepDebtPeak re-seeds the peak tracker from the current debt, so a
// driver can measure per-phase peaks: reset at a phase boundary, read
// SweepDebtPeak at the next. The debt itself is untouched.
func (s *System) ResetSweepDebtPeak() { s.rt.ResetSweepDebtPeak() }

// SweptPages returns the total pages the incremental sweeper has poisoned.
func (s *System) SweptPages() uint64 { return s.rt.SweptPages() }

// Ralloc allocates size bytes of cleared memory with the given cleanup in
// region r and returns its address.
func (s *System) Ralloc(r *Region, size int, cleanup CleanupID) Ptr {
	return s.rt.Ralloc(r, size, cleanup)
}

// RarrayAlloc allocates a cleared array of n elements of elemSize bytes;
// the cleanup runs once per element at deletion.
func (s *System) RarrayAlloc(r *Region, n, elemSize int, cleanup CleanupID) Ptr {
	return s.rt.RarrayAlloc(r, n, elemSize, cleanup)
}

// RstrAlloc allocates size bytes of region-pointer-free memory: no
// bookkeeping, no clearing, never scanned (the paper's rstralloc).
func (s *System) RstrAlloc(r *Region, size int) Ptr { return s.rt.RstrAlloc(r, size) }

// TryRalloc, TryRarrayAlloc and TryRstrAlloc are the graceful variants of
// the three allocators: on OOM they return a *Fault wrapping ErrOutOfMemory,
// and for a negative size or count or an unregistered cleanup a *Fault of
// kind FaultBadArgument, leaving the region unchanged instead of panicking.
func (s *System) TryRalloc(r *Region, size int, cleanup CleanupID) (Ptr, error) {
	return s.rt.TryRalloc(r, size, cleanup)
}

// TryRarrayAlloc is the graceful variant of RarrayAlloc; see TryRalloc.
func (s *System) TryRarrayAlloc(r *Region, n, elemSize int, cleanup CleanupID) (Ptr, error) {
	return s.rt.TryRarrayAlloc(r, n, elemSize, cleanup)
}

// TryRstrAlloc is the graceful variant of RstrAlloc; see TryRalloc.
func (s *System) TryRstrAlloc(r *Region, size int) (Ptr, error) {
	return s.rt.TryRstrAlloc(r, size)
}

// RstrFree retires one RstrAlloc block of the given original size: the
// bytes stop counting as live and — unless NoStrPool, or size is above the
// pool ceiling — the block is poisoned and parked on the region's
// capacity-class free list, where a later RstrAlloc of a fitting size
// reuses it without bumping. Freeing is optional (regions reclaim
// everything at deletion, as in the paper) and panics with a *Fault on
// misuse: a pointer outside r, a block that is not string data r
// allocated, a block already freed, a nil or unaligned pointer or a
// non-positive size.
func (s *System) RstrFree(r *Region, p Ptr, size int) { s.rt.RstrFree(r, p, size) }

// TryRstrFree is the graceful variant of RstrFree: misuse returns the
// *Fault instead of panicking, before anything is charged or changed.
func (s *System) TryRstrFree(r *Region, p Ptr, size int) error {
	return s.rt.TryRstrFree(r, p, size)
}

// RegionOf returns the region containing p, or nil (the paper's regionof).
func (s *System) RegionOf(p Ptr) *Region { return s.rt.RegionOf(p) }

// RegisterCleanup registers a cleanup function under a diagnostic name.
func (s *System) RegisterCleanup(name string, fn CleanupFunc) CleanupID {
	return s.rt.RegisterCleanup(name, fn)
}

// SizeCleanup returns a cleanup for pointer-free objects of a fixed size.
func (s *System) SizeCleanup(size int) CleanupID { return s.rt.SizeCleanup(size) }

// --- bound region handles ------------------------------------------------------

// Handle is a region handle bound to its System, so call sites stop
// threading (sys, region) pairs through every function. It is a small value
// type — copy it freely, pass it by value. The paper-shaped methods on
// System (Ralloc, DeleteRegion, ...) remain as the flat spelling of the
// same operations; a Handle adds nothing a (sys, r) pair does not have.
//
//	h := sys.Bind(sys.NewRegion())
//	p := h.Alloc(16, cln)
//	h.Delete()
type Handle struct {
	s *System
	r *Region
}

// Bind returns a handle binding r to this system.
func (s *System) Bind(r *Region) Handle { return Handle{s: s, r: r} }

// Region returns the underlying region handle.
func (h Handle) Region() *Region { return h.r }

// System returns the system the handle is bound to.
func (h Handle) System() *System { return h.s }

// Alloc allocates size bytes of cleared memory with the given cleanup in
// the bound region (Ralloc).
func (h Handle) Alloc(size int, cleanup CleanupID) Ptr { return h.s.Ralloc(h.r, size, cleanup) }

// AllocArray allocates a cleared array of n elements of elemSize bytes in
// the bound region (RarrayAlloc).
func (h Handle) AllocArray(n, elemSize int, cleanup CleanupID) Ptr {
	return h.s.RarrayAlloc(h.r, n, elemSize, cleanup)
}

// AllocStr allocates size bytes of region-pointer-free memory in the bound
// region (RstrAlloc).
func (h Handle) AllocStr(size int) Ptr { return h.s.RstrAlloc(h.r, size) }

// TryAlloc, TryAllocArray and TryAllocStr are the graceful variants of the
// three handle allocators; see System.TryRalloc.
func (h Handle) TryAlloc(size int, cleanup CleanupID) (Ptr, error) {
	return h.s.TryRalloc(h.r, size, cleanup)
}

// TryAllocArray is the graceful variant of AllocArray.
func (h Handle) TryAllocArray(n, elemSize int, cleanup CleanupID) (Ptr, error) {
	return h.s.TryRarrayAlloc(h.r, n, elemSize, cleanup)
}

// TryAllocStr is the graceful variant of AllocStr.
func (h Handle) TryAllocStr(size int) (Ptr, error) { return h.s.TryRstrAlloc(h.r, size) }

// FreeStr retires one AllocStr block for reuse within the bound region
// (RstrFree).
func (h Handle) FreeStr(p Ptr, size int) { h.s.RstrFree(h.r, p, size) }

// TryFreeStr is the graceful variant of FreeStr.
func (h Handle) TryFreeStr(p Ptr, size int) error { return h.s.TryRstrFree(h.r, p, size) }

// Delete attempts to delete the bound region (DeleteRegion).
func (h Handle) Delete() bool { return h.s.DeleteRegion(h.r) }

// TryDelete is the graceful variant of Delete; see System.TryDeleteRegion.
func (h Handle) TryDelete() (bool, error) { return h.s.TryDeleteRegion(h.r) }

// Referrers reports every tracked location still referencing the bound
// region — the first place to look when Delete returns false.
func (h Handle) Referrers() []Ref { return h.s.Referrers(h.r) }

// --- region migration ----------------------------------------------------------

// RegionRecord is one quiesced region serialized for transport between
// Systems: page images, allocator state, and cleanup references by name.
// Produce one with ExportRegion, consume it exactly once with ImportRegion
// on the destination; Translate maps pointers a driver captured into the
// old placement onto the new one.
type RegionRecord = core.RegionRecord

// Migration refusal sentinels; test with errors.Is. ExportRegion refuses —
// leaving the region fully usable — rather than move a region that is not
// quiescent; ImportRegion refuses a record whose cleanup names the
// receiving System has never registered.
var (
	ErrExportReferenced  = core.ErrExportReferenced
	ErrExportCrossRegion = core.ErrExportCrossRegion
	ErrImportCleanup     = core.ErrImportCleanup
)

// ExportRegion serializes the quiesced region r into a portable record and
// releases its pages: r must have a zero exact reference count (no heap,
// global, or frame references — ErrExportReferenced otherwise) and no
// scanned pointers into other regions (ErrExportCrossRegion). On success r
// is a tombstone: any later use faults with FaultMigratedRegion, exactly as
// a deleted region faults with FaultDeletedRegion.
func (s *System) ExportRegion(r *Region) (*RegionRecord, error) { return s.rt.ExportRegion(r) }

// ImportRegion materializes a record exported from another System (or this
// one): fresh pages, intra-region pointers rewritten to the new placement
// in O(pages), cleanup ids remapped by registered name. The receiving
// System must have registered every cleanup name the record references
// (RegisterCleanup/SizeCleanup) — ErrImportCleanup before anything is
// acquired otherwise. On OOM the partial placement is rolled back and the
// record stays valid for a retry.
func (s *System) ImportRegion(rec *RegionRecord) (*Region, error) { return s.rt.ImportRegion(rec) }

// Exportable reports whether ExportRegion would accept r right now, without
// charging cycles or disturbing anything — the advisory probe a placement
// policy uses to pick a migration candidate.
func (s *System) Exportable(r *Region) bool { return s.rt.Exportable(r) }

// ContentChecksum digests r's live content in a placement-independent way:
// intra-region pointers are relativized, so a region and its imported copy
// on another System produce the same digest. Charges no simulated cycles.
func (s *System) ContentChecksum(r *Region) uint32 { return s.rt.ContentChecksum(r) }

// LiveRegions returns the system's live (not deleted, not migrated)
// regions in creation order.
func (s *System) LiveRegions() []*Region { return s.rt.LiveRegions() }

// --- memory access and barriers ----------------------------------------------

// Load reads the word at the 4-byte-aligned address p. Here and in every
// store below, an unaligned or unmapped address panics with a
// FaultBadArgument *Fault wrapping the mem.AccessError, before anything is
// charged.
func (s *System) Load(p Ptr) Word {
	s.rt.CheckAccess("load", p)
	return s.sp.Load(p)
}

// Store writes a non-pointer word. Region pointers must be written with
// StorePtr or StoreGlobalPtr so the reference counts stay exact.
func (s *System) Store(p Ptr, v Word) {
	s.rt.CheckAccess("store", p)
	s.sp.Store(p, v)
}

// StorePtr writes the region pointer val into the heap word slot inside a
// region object, applying the paper's region-write barrier.
func (s *System) StorePtr(slot, val Ptr) { s.rt.StorePtr(slot, val) }

// StoreGlobalPtr writes a region pointer into global storage, applying the
// paper's global-write barrier. A slot outside the storage AllocGlobals
// handed out panics with a FaultBadArgument *Fault before anything changes.
func (s *System) StoreGlobalPtr(slot, val Ptr) { s.rt.StoreGlobalPtr(slot, val) }

// StorePtrDynamic classifies slot at run time, for writes the "compiler"
// cannot classify statically. Under Unsafe() there is no barrier to
// choose, so it stores into any mapped, aligned slot by design.
func (s *System) StorePtrDynamic(slot, val Ptr) { s.rt.StorePtrDynamic(slot, val) }

// AllocGlobals reserves nwords words of global storage.
func (s *System) AllocGlobals(nwords int) Ptr { return s.rt.AllocGlobals(nwords) }

// --- local variables -----------------------------------------------------------

// PushFrame enters an activation with n region-pointer slots.
func (s *System) PushFrame(n int) *Frame { return s.rt.PushFrame(n) }

// PopFrame leaves the innermost activation, unscanning a scanned caller
// frame as control returns to it.
func (s *System) PopFrame() { s.rt.PopFrame() }

// --- debugging ------------------------------------------------------------------

// Ref is one location holding a reference into a region, reported by
// Referrers; RefKind classifies it.
type (
	Ref     = core.Ref
	RefKind = core.RefKind
)

// Reference location kinds.
const (
	RefHeap   = core.RefHeap
	RefGlobal = core.RefGlobal
	RefFrame  = core.RefFrame
)

// Referrers reports every tracked location that still references r — the
// region-debugging aid the paper wished for when hunting the stale pointers
// that make DeleteRegion fail. It charges no simulated cycles.
func (s *System) Referrers(r *Region) []Ref { return s.rt.Referrers(r) }

// --- observability --------------------------------------------------------------

// Tracer is a fixed-capacity ring buffer of runtime events; Event is one
// recorded event and EventKind its type. The event schema, the sinks
// (JSONL, Chrome trace_event), and the lifetime analysis are documented in
// docs/OBSERVABILITY.md and driven end to end by cmd/regionstat's -events,
// -jsonl and -chrome.
type (
	Tracer    = trace.Tracer
	Event     = trace.Event
	EventKind = trace.Kind
)

// Event kinds, re-exported for filtering trace output.
const (
	EvRegionCreate     = trace.KindRegionCreate
	EvRegionDelete     = trace.KindRegionDelete
	EvRegionDeleteFail = trace.KindRegionDeleteFail
	EvRalloc           = trace.KindRalloc
	EvRarrayAlloc      = trace.KindRarrayAlloc
	EvRstrAlloc        = trace.KindRstrAlloc
	EvBarrierGlobal    = trace.KindBarrierGlobal
	EvBarrierRegion    = trace.KindBarrierRegion
	EvBarrierElided    = trace.KindBarrierElided
	EvStackScan        = trace.KindStackScan
	EvStackUnscan      = trace.KindStackUnscan
	EvCleanup          = trace.KindCleanup
	EvDestroy          = trace.KindDestroy
	EvFault            = trace.KindFault
	EvMigrate          = trace.KindMigrate
	EvRstrFree         = trace.KindRstrFree
)

// NewTracer returns a tracer holding the last capacity events (a default
// capacity is used when capacity <= 0).
func NewTracer(capacity int) *Tracer { return trace.New(capacity) }

// SetTracer attaches t to the system: every region operation then emits one
// typed event, timestamped with the system's modelled cycle count. Pass nil
// to detach. A system without a tracer pays one nil check per operation and
// charges no simulated cycles either way.
func (s *System) SetTracer(t *Tracer) { s.rt.SetTracer(t) }

// Trace returns the attached tracer, or nil.
func (s *System) Trace() *Tracer { return s.rt.Tracer() }

// --- metrics and heap profiling -------------------------------------------------

// MetricsRegistry is a registry of counters, gauges, and fixed-bucket
// histograms over the runtime, the always-on companion to the event-level
// Tracer. Every series is read from counts the simulator keeps, so each is
// exact, allocation sites included: regions_alloc_site_objects_total and
// regions_alloc_site_bytes_total count every allocation at its cleanup's
// name or string class. Snapshot gives a consistent, diffable reading;
// WritePrometheus and WriteJSON render it. See docs/OBSERVABILITY.md.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is one consistent, sorted reading of a registry.
type MetricsSnapshot = metrics.Snapshot

// HeapReport is a structural census of the simulated heap: per-region live,
// bookkeeping, free, and fragmented bytes, page counts, occupancy, and an
// allocation-site census — produced by System.HeapProfile.
type HeapReport = metrics.HeapReport

// NewMetricsRegistry returns an empty metrics registry ready to attach.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// SetMetrics attaches reg to the system, replacing any earlier registry;
// pass nil to detach. The registry reads every series from the counts the
// runtime and its simulated OS keep anyway, at every Snapshot: counters are
// totals since New, whenever the registry was attached, while histograms
// and the allocation-site counters count what happened while the system
// was metered (call SetMetrics right after New for sites that sum to the
// totals). Because Snapshot reads the system's own counts, call it from the
// goroutine that uses the system, or after it is done. Detaching removes
// the system's series, histograms and sites included, from later
// snapshots. Like tracing, metrics are host-side observability: a system
// without a registry pays one nil check per histogram site, and a metered
// run charges exactly the same simulated cycles as a bare one.
func (s *System) SetMetrics(reg *MetricsRegistry) {
	s.rt.SetMetrics(reg)
	s.sp.SetMetrics(reg)
}

// Metrics returns the attached metrics registry, or nil.
func (s *System) Metrics() *MetricsRegistry { return s.rt.Metrics() }

// HeapProfile walks the heap — reusing the same audited page walk as Verify
// — and returns a per-region census of where every byte went: live data,
// allocator bookkeeping, free space in open pages, and fragmentation. It
// charges no simulated cycles and fails only if the heap's structural
// invariants do not hold.
func (s *System) HeapProfile() (*HeapReport, error) { return s.rt.HeapReport() }
