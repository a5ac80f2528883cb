// Package core implements the paper's contribution: safe region-based
// memory management (Gay & Aiken, "Memory Management with Explicit Regions",
// PLDI 1998, Sections 3 and 4).
//
// A Runtime owns a simulated address space and plays the role of the C@
// compiler plus runtime library:
//
//   - Regions are lists of 4 KB pages with bump allocation on the first page
//     of the list. Each region contains two allocators, one for normal data
//     (ralloc/rarrayalloc: scanned at deletion, cleared on allocation) and
//     one for region-pointer-free data (rstralloc: never scanned, no
//     bookkeeping). The region structure itself — reference count and the
//     two allocators — lives in the region's first page, colored by 64-byte
//     offsets to reduce cache conflicts between region structures.
//   - Safety comes from region reference counting: exact counts for
//     pointers stored in regions and global storage (write barriers with
//     the sameregion optimization, Figure 5), and deferred counts for local
//     variables using a shadow stack with a high-water mark (Section 4.2.1).
//   - DeleteRegion (the paper's deleteregion) scans the unscanned part of
//     the stack, checks that the exact reference count is zero, runs the
//     region's cleanup functions (Figure 7), and returns the region's pages
//     to a free page list. It is a failing no-op when external references
//     remain.
//
// An unsafe Runtime is identical except that every operation maintaining or
// testing reference counts is disabled, matching the paper's unsafe library.
package core

import (
	"fmt"
	"slices"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
)

// Ptr is a pointer into the simulated heap. The nil pointer is 0.
type Ptr = mem.Addr

const (
	// hdrWords is the size of the in-heap region structure: reference
	// count, normal allocator (first page, allocation offset), string
	// allocator (first page, allocation offset).
	hdrWords = 5
	hdrBytes = hdrWords * mem.WordSize

	// pageLink is the offset of the next-page link word in every region
	// page. The link's low 12 bits carry the entry's page count minus one,
	// so multi-page allocations (a lifting of the paper prototype's
	// one-page limit) live on the same list.
	pageLink = 0

	// maxEntryPages is the most pages one page-list entry can hold: its
	// link word keeps the page count minus one below the next entry's
	// page-aligned address. maxEntryData is the most bytes such an entry
	// holds past its link word; the allocators refuse anything larger.
	maxEntryPages = mem.PageSize
	maxEntryData  = maxEntryPages*mem.PageSize - mem.WordSize

	// colorStep and colorMax implement the paper's region-structure
	// coloring: successive regions are offset by 64 bytes (the second-level
	// cache line size) in their first page, up to a maximum offset of 512.
	colorStep = 64
	colorMax  = 512

	// arrayFlag marks an object header word as an array allocation.
	arrayFlag = 1 << 31

	// Barrier overheads, in instructions, from Figure 5 of the paper. The
	// barrier's own memory accesses are charged as they happen, so the
	// extra charge is the paper's count minus the typical access count.
	globalWriteExtra = 16 - 4
	regionWriteExtra = 23 - 6
	// dynamicWriteExtra is the "more expensive runtime routine" used when a
	// write cannot be statically classified (Section 4.2.2).
	dynamicWriteExtra = 30 - 6

	// Decomposition of regionWriteExtra for the last-region translation
	// cache: each of the barrier's three regionof probes costs lrProbeMiss
	// instructions against the dense page index, or lrProbeHit when the
	// cache answers. All three missing sums to exactly regionWriteExtra,
	// so a workload the cache never helps charges what it always did (and
	// Options.NoRegionCache restores the flat pre-cache model verbatim).
	lrProbeHit      = 1
	lrProbeMiss     = 3
	regionWriteBase = regionWriteExtra - 3*lrProbeMiss

	// barrierFastExtra is the short region-write path taken when all three
	// translations hit the cache and no count update is needed (val in
	// slot's region, old value nil or also in slot's region): a handful of
	// compares instead of the full Figure 5 sequence.
	barrierFastExtra = 4

	// lrSize is the entry count of the per-runtime last-region translation
	// cache: direct-mapped on the low page-number bits, small enough that
	// the invalidation sweep in notePages is a few compares.
	lrSize = 4
)

// lrEntry caches one page-number -> region translation. The zero entry maps
// page 0 to nil, which is correct forever: page 0 is reserved and never
// owned, so a zeroed cache is a valid cache.
type lrEntry struct {
	page Ptr
	r    *Region
}

// Region header field offsets (bytes from the header address).
const (
	offRC          = 0
	offNormalFirst = 4
	offNormalAvail = 8 // allocation offset within the first page
	offStringFirst = 12
	offStringAvail = 16

	errDeleted  = "core: operation on deleted region"
	errDetached = "core: operation on detached region (sweep pending)"
	errMigrated = "core: operation on region migrated to another runtime"
)

// Region is a handle to a region. As in the paper, the handle itself is not
// a counted region pointer: deleteregion(Region *x) explicitly excepts *x,
// and our generalization is that Region handles held by Go code are
// untracked while Ptr values in frame slots and heap words are tracked.
//
// A handle is 16 bytes: the region's id and header address, which the
// allocators and barriers read directly and every fault on the region
// reports, and a pointer to the region's state. The state belongs to the
// runtime and is reused like the region's pages: once the region owns
// nothing (a synchronous delete, the sweep of its last detached page, an
// export), the handle points at the shared read-only state for its kind of
// death and the state goes on the runtime's spare list for the next region.
// A dead handle thus keeps faulting with its own kind, id and header
// address, and never reaches a state another region now uses.
type Region struct {
	st  *regionState
	id  int32
	hdr Ptr // address of the in-heap region structure
}

// regionState is the host-side state of a region that owns memory. Every
// write to it follows a test that the region is live (or, for unswept,
// detached), so none reaches a shared dead state.
type regionState struct {
	// bytes counts the program-requested bytes live in the region, for
	// Table 2. They sit in the region's own pages, so a 32-bit space keeps
	// them below 4 GiB; ImportRegion refuses a record that claims more than
	// its pages hold, and Verify audits the same bound.
	bytes uint32
	// unswept counts the region's detached pages the incremental sweeper has
	// not yet poisoned (Options.DeferredDelete). A deleted region with
	// unswept > 0 is "detached": unreachable and RC-checked exactly like a
	// deleted one, but its pages still carry stale contents on the free
	// lists. See sweep.go.
	unswept int32
	// strTop mirrors the string list's bump frontier host-side: the address
	// past the last byte bumped on a one-page head entry, 0 while the list
	// is empty or its head is a multi-page entry (which is full). RstrFree
	// checks blocks against it without reading the region header; Verify
	// checks it against the header.
	strTop  Ptr
	deleted bool
	// migrated marks a region ExportRegion handed off to another runtime:
	// deleted is also set (the pages are gone from this runtime), and stale
	// handles fault with FaultMigratedRegion instead of FaultDeletedRegion.
	migrated bool

	allocs uint64
	born   uint64 // simulated cycle of creation, for the lifetime histogram
	// pool holds the region's string-pool free lists, host-side like the
	// runtime's free page lists. Nil until the region's first pooled free;
	// the emptied table stays with the state when it is reused, so region
	// churn does not make a table per region. See strpool.go.
	pool *strPool
}

// deletedState and migratedState are the states of handles whose regions
// own nothing, deleted or migrated away. Every runtime shares them and none
// writes them; Verify audits that.
var (
	deletedState  = regionState{deleted: true}
	migratedState = regionState{deleted: true, migrated: true}
)

// isDead reports whether st is one of the shared dead states.
func isDead(st *regionState) bool { return st == &deletedState || st == &migratedState }

// Options configures a Runtime beyond the paper's two libraries, enabling
// the ablation experiments and the sharded throughput engine.
type Options struct {
	// Safe enables reference counting, stack scanning, and cleanups.
	Safe bool
	// PageBatch, when above 1, makes the runtime request free pages from
	// the simulated OS in batches of this size and serve single-page needs
	// from the resulting free-page cache. The default (0 or 1) maps pages
	// one at a time, exactly as the paper's library does; shard runtimes
	// set a batch so steady-state region churn stops round-tripping
	// through the OS. Batching changes only when OS calls happen, not the
	// simulated cycle accounting of allocation itself.
	PageBatch int
	// NoColoring disables the 64-byte offsets of region structures in
	// their first pages (Section 4.1's cache-conflict mitigation).
	NoColoring bool
	// EagerLocals replaces the deferred high-water-mark scheme of Section
	// 4.2.1 with exact counting of local variables: every frame-slot write
	// pays a barrier and deletion needs no stack scan. This is the
	// expensive design the paper's deferred scheme exists to avoid.
	EagerLocals bool
	// NoRegionCache disables the last-region translation cache and the
	// write barrier's cached fast path: every regionof probe goes to the
	// dense page index and every region write charges the flat Figure 5
	// cost (regionWriteExtra), the pre-cache model. Exists for ablation
	// and A/B measurement.
	NoRegionCache bool
	// DeferredDelete splits deleteregion into detach + incremental sweep:
	// TryDeleteRegion keeps the RC check and cleanup semantics but only
	// detaches the region's pages (flagged in the page index, poisoning and
	// the per-page reclamation charge deferred), and SweepSlice pays the
	// deferred cost in bounded slices. Detached pages sit on the free lists
	// in exactly the order synchronous deletion would put them, so the
	// allocation address stream — and with it every checksum — is identical
	// in both modes. See sweep.go for the debt-bound argument.
	DeferredDelete bool
	// SweepBudget is the maximum pages one SweepSlice poisons (default
	// defaultSweepBudget). Only meaningful with DeferredDelete.
	SweepBudget int
	// SweepHighWater is the sweep-debt page count above which every page
	// acquisition first runs one sweep slice — the "pay as you allocate"
	// tax that bounds debt under delete-heavy workloads (default
	// sweepHighWaterFactor times the budget). Only meaningful with
	// DeferredDelete.
	SweepHighWater int
	// NoStrPool disables the pooled string allocator's free lists:
	// RstrFree becomes accounting-only and every rstralloc bumps, the
	// paper's original behavior. The per-class New/Big counters and the
	// "str:" site census stay active so an A/B pair reports comparable
	// columns. Exists for ablation and the pooling-on/off determinism
	// gate; see strpool.go.
	NoStrPool bool
}

// Runtime is one region-based memory management instance over one simulated
// address space.
type Runtime struct {
	space *mem.Space
	c     *stats.Counters
	// t is the runtime's host-side counts beside c (see metrics.go),
	// allocated apart from the runtime so a metrics source can hold it
	// without holding the heap.
	t    *Tally
	safe bool
	opts Options

	// regions lists, in creation order, every region that may still own
	// memory: the live ones, and the deleted ones whose detached pages
	// await the sweeper. Deleted regions that own nothing are dropped when
	// the list would otherwise grow (see addRegion). nextID numbers regions
	// in creation order.
	regions   []*Region
	nextID    int32
	pages     pageIndex       // dense page number -> region map (see pageindex.go)
	lr        [lrSize]lrEntry // last-region translation cache over pages
	freePages []Ptr           // single free pages available for reuse
	spans     freeSpanTable
	colorSeq  int

	// spare holds the states of regions that own nothing any more, for the
	// next region created or imported (see retire).
	spare []*regionState

	// Deferred-reclamation state (Options.DeferredDelete; see sweep.go).
	// sweepq[sweepHead:] lists the detached page runs awaiting their sweep;
	// the debt itself, the pages detached but not yet swept, is t.SweepDebt.
	sweepq    []sweepEntry
	sweepHead int
	sweepPeak int
	// sweepTaxCycles accumulates the simulated cycles charged by allocation-tax
	// sweep slices — the slices acquirePages runs above the high-water mark,
	// inside some caller's allocation phase rather than in idle time. The
	// serving simulator reads deltas of this to carve the tax out of the
	// phase it interrupted (see internal/serve).
	sweepTaxCycles uint64
	sweepTaxSlices uint64

	cleanups     []cleanupEntry
	sizeCleanups map[int]CleanupID

	stack stack

	globalSeg  Ptr // bump segment for global region-pointer variables
	globalNext Ptr
	globalEnd  Ptr
	// globalRanges records the used extent [start, end) of every retired
	// global segment, so Verify and Referrers can walk all global storage,
	// not just the current segment.
	globalRanges [][2]Ptr

	deleting *Region // region currently being cleaned up, for Destroy

	// verifying makes Destroy an immediate no-op so Verify can dry-run
	// cleanup functions to measure object extents without touching counts.
	verifying bool

	// tracer, when non-nil, receives one event per runtime operation (see
	// internal/trace and docs/OBSERVABILITY.md). Every emission site is
	// guarded by a nil check so the untraced runtime pays one predicate.
	tracer *trace.Tracer

	// met, when non-nil, marks the runtime metered (see metrics.go and
	// internal/metrics): it keeps its histograms in t and counts every
	// allocation at its site in sites. Same contract as tracer: every
	// observation site is nil-guarded, observations are host-side only,
	// and a metered run's stats.Counters are identical to a bare run's.
	met *runtimeMetrics
	// sites is nil until the first Meter, then kept across later ones.
	sites *siteTable
}

// NewRuntime creates a region runtime on the given space. If safe is false,
// all reference counting, stack scanning and cleanup support is disabled, as
// in the paper's unsafe library.
func NewRuntime(space *mem.Space, safe bool) *Runtime {
	return NewRuntimeOpts(space, Options{Safe: safe})
}

// NewRuntimeOpts creates a region runtime with explicit options.
func NewRuntimeOpts(space *mem.Space, opts Options) *Runtime {
	rt := &Runtime{
		space: space,
		c:     space.Counters(),
		t:     &Tally{},
		safe:  opts.Safe,
		opts:  opts,
	}
	rt.stack.rt = rt
	return rt
}

// Space returns the simulated address space the runtime allocates from.
func (rt *Runtime) Space() *mem.Space { return rt.space }

// Safe reports whether this runtime maintains reference counts.
func (rt *Runtime) Safe() bool { return rt.safe }

// Counters returns the statistics sink shared with the space.
func (rt *Runtime) Counters() *stats.Counters { return rt.c }

// SetTracer attaches t as the runtime's event sink (nil detaches). If t has
// no clock yet, the runtime's modelled cycle count becomes its timestamp
// source, so events line up with the paper's cycle accounting. Tracing
// charges no simulated cycles.
func (rt *Runtime) SetTracer(t *trace.Tracer) {
	rt.tracer = t
	if t != nil {
		c := rt.c
		t.InitClock(func() uint64 { return c.TotalCycles() })
	}
}

// Tracer returns the attached tracer, or nil.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// regionID maps a region to its event id (-1 for nil).
func regionID(r *Region) int32 {
	if r == nil {
		return -1
	}
	return r.id
}

// charge adds n instruction cycles to mode without touching memory.
func (rt *Runtime) charge(mode stats.Mode, n uint64) {
	rt.c.Cycles[mode] += n
}

// ---------------------------------------------------------------------------
// Pages and the page-to-region map

func (rt *Runtime) notePages(first Ptr, n int, r *Region) {
	rt.pages.set(first, n, r)
	// Every page-ownership change flows through here — acquire, release,
	// global segments — so dropping the covered translation-cache entries
	// makes a stale cache hit structurally impossible. Uncharged: the
	// sweep stands in for the handful of compares a real library folds
	// into its page bookkeeping, and the release path already charges per
	// page.
	pg := first >> mem.PageShift
	for i := range rt.lr {
		if e := &rt.lr[i]; e.page >= pg && e.page < pg+Ptr(n) {
			*e = lrEntry{}
		}
	}
}

// acquirePages returns n contiguous zeroed pages owned by region r, or 0
// when the free lists cannot satisfy the request and the simulated OS
// refuses to map fresh pages. Single pages come from the free page list
// (refilled in batches when Options.PageBatch is set); freed multi-page
// spans are reused for allocations of the same page count.
func (rt *Runtime) acquirePages(n int, r *Region) Ptr {
	if rt.t.SweepDebt > 0 && rt.t.SweepDebt > rt.sweepHighWaterPages() {
		// Allocation tax: above the high-water mark every acquisition sweeps
		// one slice first, so debt is bounded even when no idle cycles ever
		// arrive (see sweep.go). The tax variant additionally accounts the
		// slice's cycles so phase attribution can name them.
		rt.sweepTaxSlice()
	}
	rt.charge(stats.ModeAlloc, 2) // list manipulation
	if n == 1 {
		if len(rt.freePages) == 0 {
			rt.refillPageCache()
		}
		if len(rt.freePages) > 0 {
			p := rt.freePages[len(rt.freePages)-1]
			rt.freePages = rt.freePages[:len(rt.freePages)-1]
			rt.cancelDetached(p, 1)
			rt.space.ZeroPageFree(p)
			rt.notePages(p, 1, r)
			rt.t.PagesAcquired++
			return p
		}
	}
	if n > 1 {
		if p := rt.spans.take(n); p != 0 {
			rt.cancelDetached(p, n)
			for i := 0; i < n; i++ {
				rt.space.ZeroPageFree(p + Ptr(i)<<mem.PageShift)
			}
			rt.notePages(p, n, r)
			rt.t.PagesAcquired += uint64(n)
			return p
		}
	}
	p := rt.space.MapPages(n)
	if p == 0 {
		return 0
	}
	rt.notePages(p, n, r)
	rt.t.PagesAcquired += uint64(n)
	return p
}

// releaseEntry returns a page-list entry to the free lists and clears its
// region ownership. The freed pages are filled with mem.PoisonWord
// (uncharged — freed memory is outside the machine model) so dangling reads
// are unmistakable and Verify can detect stray writes into free pages;
// reuse paths re-zero before handing out.
func (rt *Runtime) releaseEntry(first Ptr, n int) {
	rt.charge(stats.ModeFree, uint64(1+n))
	rt.notePages(first, n, nil)
	rt.t.PagesReleased += uint64(n)
	for i := 0; i < n; i++ {
		rt.space.PoisonPageFree(first + Ptr(i)<<mem.PageShift)
	}
	if n > 1 {
		rt.spans.put(first, n)
		return
	}
	rt.freePages = append(rt.freePages, first)
}

// regionOf translates p to its owning region, consulting the last-region
// translation cache before the dense page index, and reports whether the
// cache answered — the region-write barrier charges hits and misses
// differently. The probe counts are host-side; simulated cycles are charged
// at the call sites.
func (rt *Runtime) regionOf(p Ptr) (*Region, bool) {
	if r, hit := rt.lrProbe(p); hit {
		return r, true
	}
	return rt.regionMiss(p), false
}

// lrProbe is regionOf's cache hit test, small enough to inline into the
// region-write barrier: p's translation if the cache holds one, counted as
// a hit. On a miss it counts nothing, and the caller goes on to regionMiss.
func (rt *Runtime) lrProbe(p Ptr) (*Region, bool) {
	pg := p >> mem.PageShift
	if e := &rt.lr[pg&(lrSize-1)]; e.page == pg && !rt.opts.NoRegionCache {
		rt.t.LRHits++
		return e.r, true
	}
	return nil, false
}

// regionMiss is regionOf after a cache miss: it translates p through the
// dense page index and fills p's cache entry (nil translations are
// cacheable too: "not a region address" is as stable as ownership, and
// notePages drops the entry on any change). It stays out of line, so the
// barrier's three probes keep it short.
//
//go:noinline
func (rt *Runtime) regionMiss(p Ptr) *Region {
	pg := p >> mem.PageShift
	var r *Region
	if pg < Ptr(len(rt.pages.owners)) {
		r = rt.pages.owners[pg]
	}
	if !rt.opts.NoRegionCache {
		rt.lr[pg&(lrSize-1)] = lrEntry{page: pg, r: r}
	}
	rt.t.LRMisses++
	if r != nil {
		rt.t.PageIndexHits++
	}
	return r
}

// RegionOf returns the region containing p, or nil if p is not a region
// address (nil, global storage, or allocator-free space). This is the
// paper's regionof, backed by the last-region translation cache over the
// dense page-index array (Section 4.1): on a cache miss, a shift, one
// bounds check, and one load. The nil pointer needs no test of its own —
// it lands on the reserved page 0, which is never owned.
func (rt *Runtime) RegionOf(p Ptr) *Region {
	r, _ := rt.regionOf(p)
	return r
}

// ---------------------------------------------------------------------------
// Region creation and allocation

// NewRegion creates an empty region (the paper's newregion). The region
// structure is stored in the region's own first page at a colored offset.
// NewRegion panics with a *Fault if the simulated OS refuses the region's
// first page; TryNewRegion is the graceful variant.
func (rt *Runtime) NewRegion() *Region {
	r, err := rt.TryNewRegion()
	if err != nil {
		panic(err)
	}
	return r
}

// TryNewRegion creates an empty region, returning a *Fault (kind FaultOOM,
// wrapping *mem.OOMError) instead of a region when the simulated OS refuses
// the first page. On failure the runtime is unchanged: no region id is
// consumed and no page ownership is recorded.
func (rt *Runtime) TryNewRegion() (*Region, error) {
	old := rt.space.SetMode(stats.ModeAlloc)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeAlloc, 3)

	r := &Region{id: rt.nextID}
	page := rt.acquirePages(1, r)
	if page == 0 {
		return nil, rt.oomFault("newregion", r.id)
	}
	r.st = rt.takeState()
	rt.addRegion(r)

	color := Ptr(rt.colorSeq*colorStep) % (colorMax + colorStep)
	if rt.opts.NoColoring {
		color = 0
	}
	rt.colorSeq++
	hdr := page + mem.WordSize + color
	r.hdr = hdr

	rt.space.Store(page+pageLink, 0) // single-page entry, end of list
	rt.space.Store(hdr+offRC, 0)
	rt.space.Store(hdr+offNormalFirst, page)
	rt.space.Store(hdr+offNormalAvail, hdr+hdrBytes-page)
	rt.space.Store(hdr+offStringFirst, 0)
	rt.space.Store(hdr+offStringAvail, mem.PageSize)

	r.st.born = rt.c.TotalCycles()
	rt.c.RegionCreated()
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindRegionCreate, Region: r.id, Addr: hdr, Aux: -1})
	}
	return r, nil
}

// addRegion consumes r's id, the next in creation order, and appends r to
// the region list. When the append would grow the list, the regions that
// own nothing any more — deleted and fully swept, or migrated away — are
// dropped first, in place and in creation order, so the list tracks the
// regions that hold memory rather than every region ever made. A dropped
// region's handle becomes collectable once no caller holds it; a handle
// that is held still faults, since its dead state says how the region
// died. The list grows anyway when dropping freed less than half of it, so
// a create costs amortized O(1).
func (rt *Runtime) addRegion(r *Region) {
	rt.nextID++
	if n := len(rt.regions); n == cap(rt.regions) {
		kept := rt.regions[:0]
		for _, q := range rt.regions {
			if !q.st.deleted || q.st.unswept > 0 {
				kept = append(kept, q)
			}
		}
		clear(rt.regions[len(kept):n])
		rt.regions = kept
		if len(kept) > n/2 {
			rt.regions = slices.Grow(kept, n)
		}
	}
	rt.regions = append(rt.regions, r)
}

// takeState returns a zeroed state for a new region, from the spare list
// when it holds one.
func (rt *Runtime) takeState() *regionState {
	n := len(rt.spare)
	if n == 0 {
		return &regionState{}
	}
	st := rt.spare[n-1]
	rt.spare = rt.spare[:n-1]
	return st
}

// retire ends r's claim on its state once the region owns nothing: after a
// synchronous delete, after the sweep of its last detached page, or after
// an export. r points at dead, the shared state for its kind of death,
// from then on, and its own state, zeroed but for its emptied string-pool
// table, goes on the spare list.
func (rt *Runtime) retire(r *Region, dead *regionState) {
	st := r.st
	r.st = dead
	*st = regionState{pool: st.pool}
	rt.spare = append(rt.spare, st)
}

func align4(n int) int { return (n + 3) &^ 3 }

// bump allocates total bytes from the allocator whose fields are at
// hdr+firstOff/availOff, growing the page list as needed. It returns 0 when
// the simulated OS refuses the pages; the failure path touches no header
// field or page link, so the region stays exactly as it was.
func (rt *Runtime) bump(r *Region, firstOff, availOff Ptr, total int) Ptr {
	hdr := r.hdr
	avail := rt.space.Load(hdr + availOff)
	first := rt.space.Load(hdr + firstOff)
	if int(avail)+total <= mem.PageSize && first != 0 {
		p := first + avail
		if avail == mem.PageSize {
			// A zero-byte string on a full head page: first+avail is the
			// next page's first address, which may be another region's.
			// Any address inside the head page serves.
			p -= mem.WordSize
		}
		rt.space.Store(hdr+availOff, avail+Ptr(total))
		// A zero-byte string leaves the frontier where it is, and must not
		// set one on a full multi-page head, which has none.
		if firstOff == offStringFirst && total > 0 {
			r.st.strTop = p + Ptr(total)
		}
		return p
	}
	// The link word of an entry is nextEntryAddr | (thisEntryPageCount-1);
	// entry addresses are page-aligned so the two never collide.
	npages := (total + mem.WordSize + mem.PageSize - 1) / mem.PageSize
	if npages == 1 {
		// New head page; allocation continues from it.
		page := rt.acquirePages(1, r)
		if page == 0 {
			return 0
		}
		if firstOff == offStringFirst {
			rt.pages.setStr(page, 1)
			r.st.strTop = page + mem.WordSize + Ptr(total)
		}
		rt.space.Store(page+pageLink, first)
		rt.space.Store(hdr+firstOff, page)
		rt.space.Store(hdr+availOff, mem.WordSize+Ptr(total))
		return page + mem.WordSize
	}
	// Multi-page entry, a lifting of the paper prototype's one-page limit:
	// link it behind the current head so small allocations keep filling the
	// head page's remaining space.
	span := rt.acquirePages(npages, r)
	if span == 0 {
		return 0
	}
	if firstOff == offStringFirst {
		rt.pages.setStr(span, npages)
	}
	if first == 0 {
		rt.space.Store(span+pageLink, Ptr(npages-1))
		rt.space.Store(hdr+firstOff, span)
		rt.space.Store(hdr+availOff, mem.PageSize) // span is head but full
	} else {
		headLink := rt.space.Load(first + pageLink)
		headNext := headLink &^ Ptr(mem.PageSize-1)
		headCount := headLink & (mem.PageSize - 1)
		rt.space.Store(span+pageLink, headNext|Ptr(npages-1))
		rt.space.Store(first+pageLink, span|headCount)
	}
	return span + mem.WordSize
}

// checkLive guards the allocators. A nil region is API misuse and panics
// even on the Try* paths; a deleted region is a runtime condition (use
// after free) reported as a *Fault, which Try* callers receive as an error
// and the paper-shaped wrappers convert to a panic.
func (rt *Runtime) checkLive(r *Region) error {
	if r == nil {
		panic("core: nil region")
	}
	if r.st.deleted {
		return rt.deletedFault(r)
	}
	return nil
}

// badArgument reports an allocation of n elements of size bytes with
// cleanup cln that no allocation can have: a negative size or count, an
// unregistered cleanup, or more than one page-list entry holds. The
// allocators check their arguments host-side before charging anything, so
// a rejected call changes nothing.
func (rt *Runtime) badArgument(r *Region, op string, n, size int, cln CleanupID) *Fault {
	var bad string
	switch {
	case size < 0:
		bad = fmt.Sprintf("negative size %d", size)
	case n < 0:
		bad = fmt.Sprintf("negative element count %d", n)
	case op != "rstralloc" && !rt.registered(cln):
		bad = fmt.Sprintf("invalid cleanup id %d", cln)
	case op == "rarrayalloc":
		bad = fmt.Sprintf("%d elements of size %d exceed one page-list entry (%d pages)", n, size, maxEntryPages)
	default:
		bad = fmt.Sprintf("size %d exceeds one page-list entry (%d pages)", size, maxEntryPages)
	}
	return rt.fault(FaultBadArgument, 0, r.id, op+": "+bad, nil)
}

// arrayFits reports whether n elements of size bytes, not negative, fit in
// one page-list entry behind an array's three bookkeeping words. Each
// element counts as at least one word, so zero-size elements cannot make
// an array whose cleanup pass, one call per element, outlasts any entry's.
// Both factors are bounded before they are multiplied, so the product
// cannot overflow.
func arrayFits(n, size int) bool {
	const room = maxEntryData - 3*mem.WordSize
	return size <= room && uint64(n) <= room/mem.WordSize &&
		uint64(max(align4(size), mem.WordSize))*uint64(n) <= room
}

// deletedFault reports use of a dead region, distinguishing a migrated
// region (handed off to another runtime) and a detached region (deleted,
// pages awaiting their sweep) from a fully reclaimed one so the fault names
// the state the offending pointer actually sees.
func (rt *Runtime) deletedFault(r *Region) *Fault {
	if r.st.migrated {
		return rt.fault(FaultMigratedRegion, r.hdr, r.id, errMigrated, nil)
	}
	if r.st.unswept > 0 {
		return rt.fault(FaultDetachedRegion, r.hdr, r.id, errDetached, nil)
	}
	return rt.fault(FaultDeletedRegion, r.hdr, r.id, errDeleted, nil)
}

// Ralloc allocates size bytes of cleared memory with the given cleanup in
// region r (the paper's ralloc). One word of bookkeeping precedes the data.
// Ralloc panics with a *Fault on OOM; TryRalloc is the graceful variant.
func (rt *Runtime) Ralloc(r *Region, size int, cln CleanupID) Ptr {
	p, err := rt.TryRalloc(r, size, cln)
	if err != nil {
		panic(err)
	}
	return p
}

// TryRalloc is Ralloc returning a *Fault instead of panicking: kind
// FaultOOM when the simulated OS refuses pages, FaultBadArgument for a
// negative size, an unregistered cleanup or an object larger than one
// page-list entry holds. On failure the region is unchanged.
func (rt *Runtime) TryRalloc(r *Region, size int, cln CleanupID) (Ptr, error) {
	if err := rt.checkLive(r); err != nil {
		return 0, err
	}
	if size < 0 || size > maxEntryData-mem.WordSize || !rt.registered(cln) {
		return 0, rt.badArgument(r, "ralloc", 1, size, cln)
	}
	hdr := rt.encodeCleanup(cln, false)
	old := rt.space.SetMode(stats.ModeAlloc)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeAlloc, 4)

	data := align4(size)
	p := rt.bump(r, offNormalFirst, offNormalAvail, data+mem.WordSize)
	if p == 0 {
		return 0, rt.oomFault("ralloc", r.id)
	}
	rt.space.Store(p, hdr)
	rt.space.ZeroRange(p+mem.WordSize, data)

	r.st.bytes += uint32(data)
	r.st.allocs++
	rt.c.AddAlloc(int64(data))
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindRalloc, Region: r.id,
			Addr: p + mem.WordSize, Size: int32(data), Aux: -1,
			Site: rt.cleanups[cln-1].name})
	}
	if m := rt.met; m != nil {
		metrics.Observe(allocSizeBounds[:], rt.t.AllocSize[:], &rt.t.AllocSizeSum, uint64(data))
		rt.sites.count(cleanupSite(cln), data)
	}
	return p + mem.WordSize, nil
}

// RarrayAlloc allocates a cleared array of n elements of elemSize bytes in
// region r (the paper's rarrayalloc). Three words of bookkeeping — cleanup,
// count, element size — precede the data, the paper's twelve bytes.
// RarrayAlloc panics with a *Fault on OOM; TryRarrayAlloc is the graceful
// variant.
func (rt *Runtime) RarrayAlloc(r *Region, n, elemSize int, cln CleanupID) Ptr {
	p, err := rt.TryRarrayAlloc(r, n, elemSize, cln)
	if err != nil {
		panic(err)
	}
	return p
}

// TryRarrayAlloc is RarrayAlloc returning a *Fault instead of panicking,
// as TryRalloc does; a negative count, and a count its header word cannot
// hold, are a FaultBadArgument too. On failure the region is unchanged.
func (rt *Runtime) TryRarrayAlloc(r *Region, n, elemSize int, cln CleanupID) (Ptr, error) {
	if err := rt.checkLive(r); err != nil {
		return 0, err
	}
	if n < 0 || elemSize < 0 || !arrayFits(n, elemSize) || !rt.registered(cln) {
		return 0, rt.badArgument(r, "rarrayalloc", n, elemSize, cln)
	}
	hdr := rt.encodeCleanup(cln, true)
	old := rt.space.SetMode(stats.ModeAlloc)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeAlloc, 5)

	esz := align4(elemSize)
	data := esz * n
	p := rt.bump(r, offNormalFirst, offNormalAvail, data+3*mem.WordSize)
	if p == 0 {
		return 0, rt.oomFault("rarrayalloc", r.id)
	}
	rt.space.Store(p, hdr)
	rt.space.Store(p+4, Ptr(n))
	rt.space.Store(p+8, Ptr(esz))
	rt.space.ZeroRange(p+12, data)

	r.st.bytes += uint32(data)
	r.st.allocs++
	rt.c.AddAlloc(int64(data))
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindRarrayAlloc, Region: r.id,
			Addr: p + 3*mem.WordSize, Size: int32(data), Aux: int32(n),
			Site: rt.cleanups[cln-1].name})
	}
	if m := rt.met; m != nil {
		metrics.Observe(allocSizeBounds[:], rt.t.AllocSize[:], &rt.t.AllocSizeSum, uint64(data))
		rt.sites.count(cleanupSite(cln), data)
	}
	return p + 3*mem.WordSize, nil
}

// RstrAlloc allocates size bytes of region-pointer-free memory in region r
// (the paper's rstralloc). The memory is not cleared, carries no
// bookkeeping, and is never scanned at deletion. RstrAlloc panics with a
// *Fault on OOM; TryRstrAlloc is the graceful variant.
func (rt *Runtime) RstrAlloc(r *Region, size int) Ptr {
	p, err := rt.TryRstrAlloc(r, size)
	if err != nil {
		panic(err)
	}
	return p
}

// TryRstrAlloc is RstrAlloc returning a *Fault instead of panicking: kind
// FaultOOM when the simulated OS refuses pages, FaultBadArgument for a
// negative size or a string larger than one page-list entry holds
// (maxEntryData bytes). On failure the region is unchanged.
//
// Requests no larger than the pool ceiling first probe the region's
// capacity-class free list of explicitly freed blocks (see strpool.go); a
// hit recycles without touching the bump state or the page lists. A miss —
// and every request when Options.NoStrPool is set or no block was ever
// freed — bump-allocates exactly align4(size) bytes at exactly the address
// the paper's allocator would return.
func (rt *Runtime) TryRstrAlloc(r *Region, size int) (Ptr, error) {
	if err := rt.checkLive(r); err != nil {
		return 0, err
	}
	if size < 0 || size > maxEntryData {
		return 0, rt.badArgument(r, "rstralloc", 1, size, 0)
	}
	old := rt.space.SetMode(stats.ModeAlloc)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeAlloc, 4)

	data := align4(size)
	idx := -1
	if data <= defaultStrPoolMax {
		idx = strClassIdx(data)
	}
	var p Ptr
	if idx >= 0 && !rt.opts.NoStrPool {
		p = rt.strPoolTake(r, idx, data)
	}
	reused := p != 0
	if !reused {
		p = rt.bump(r, offStringFirst, offStringAvail, data)
		if p == 0 {
			return 0, rt.oomFault("rstralloc", r.id)
		}
		if idx >= 0 {
			rt.t.StrNew[idx]++
		} else {
			rt.t.StrBig++
		}
	} else {
		rt.t.StrReuse[idx]++
	}

	r.st.bytes += uint32(data)
	r.st.allocs++
	rt.c.AddAlloc(int64(data))
	if rt.tracer != nil {
		aux := int32(-1)
		if reused {
			aux = 1
		}
		rt.tracer.Emit(trace.Event{Kind: trace.KindRstrAlloc, Region: r.id,
			Addr: p, Size: int32(data), Aux: aux})
	}
	if m := rt.met; m != nil {
		metrics.Observe(allocSizeBounds[:], rt.t.AllocSize[:], &rt.t.AllocSizeSum, uint64(data))
		rt.sites.count(strSite(idx), data)
	}
	return p, nil
}

// RstrFree returns the size-byte rstralloc block at p to region r's string
// pool for reuse by later rstrallocs of the same (or a smaller) capacity.
// The string side carries no per-object bookkeeping, so — exactly like the
// paper's cleanup functions reporting object sizes — the caller states the
// size it allocated. Freeing is optional: unfreed string memory is
// reclaimed at region deletion, as always. RstrFree panics with a *Fault on
// misuse; TryRstrFree is the graceful variant.
func (rt *Runtime) RstrFree(r *Region, p Ptr, size int) {
	if err := rt.TryRstrFree(r, p, size); err != nil {
		panic(err)
	}
}

// TryRstrFree is the free primitive behind RstrFree. It charges 2 ModeFree
// cycles (the ownership probe and the list push), poisons the block
// (uncharged, like every freed-memory fill), and parks it on the region's
// floor-capacity-class free list. Blocks above the pool ceiling, and every
// free under Options.NoStrPool, are accounting-only: the bytes stop
// counting as live and the memory waits for region deletion.
//
// Misuse is reported as a *Fault before anything is charged or changed:
// freeing into a dead region (FaultDeletedRegion and friends), freeing a
// pointer r does not own (FaultDanglingDestroy), and, as FaultBadArgument,
// a nil or unaligned pointer, a non-positive size, a block that is not
// string data r has allocated (a normal object, or a size running past the
// bump frontier or the block's page entry), a block overlapping one
// already parked (a double free) and a block larger than the region's live
// byte count, which would wrap it. The checks are host-side, so a valid
// free charges what it always has. The string side has no headers, so a
// wrong size that stays inside allocated string data goes unnoticed, and
// so does a second free of a block the pool did not park while the region
// still counts that many live bytes.
func (rt *Runtime) TryRstrFree(r *Region, p Ptr, size int) error {
	if err := rt.checkLive(r); err != nil {
		return err
	}
	if p == 0 || p%mem.WordSize != 0 || size <= 0 {
		return rt.fault(FaultBadArgument, p, r.id,
			fmt.Sprintf("rstrfree: nil or unaligned pointer, or non-positive size %d", size), nil)
	}
	data := align4(size)
	if owner, _ := rt.regionOf(p); owner != r {
		return rt.fault(FaultDanglingDestroy, p, r.id,
			"core: RstrFree of pointer outside the region", nil)
	}
	if !rt.strAllocated(r, p, data) {
		return rt.fault(FaultBadArgument, p, r.id,
			fmt.Sprintf("rstrfree: [%#x,+%d) is not string data the region allocated", p, data), nil)
	}
	if b, ok := r.st.strParked(p, data); ok {
		return rt.fault(FaultBadArgument, p, r.id,
			fmt.Sprintf("rstrfree: [%#x,+%d) overlaps the parked block [%#x,+%d) (double free?)",
				p, data, b.p, b.cap), nil)
	}
	if data > int(r.st.bytes) {
		return rt.fault(FaultBadArgument, p, r.id,
			fmt.Sprintf("rstrfree: [%#x,+%d) is more than the region's %d live bytes (double free?)",
				p, data, r.st.bytes), nil)
	}
	old := rt.space.SetMode(stats.ModeFree)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeFree, 2)

	pooled := !rt.opts.NoStrPool && data <= defaultStrPoolMax && int(p%mem.PageSize)+data <= mem.PageSize
	if pooled {
		rt.space.PoisonRange(p, data)
		rt.strPoolPut(r, p, data)
	}
	r.st.bytes -= uint32(data)
	rt.c.AddFree(int64(data))
	rt.t.StrFreeBytes += uint64(data)
	if data <= defaultStrPoolMax {
		rt.t.StrFreed[strClassIdx(data)]++
	}
	if rt.tracer != nil {
		aux := int32(0)
		if pooled {
			aux = 1
		}
		rt.tracer.Emit(trace.Event{Kind: trace.KindRstrFree, Region: r.id,
			Addr: p, Size: int32(data), Aux: aux})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Deletion

// DeleteRegion attempts to delete r (the paper's deleteregion). Under a safe
// runtime the deletion succeeds only if there are no external references to
// objects in r: the unscanned portion of the shadow stack is scanned first
// so the region's reference count is exact, and a nonzero count makes
// DeleteRegion a failing no-op. On success the region's cleanups run and all
// its pages return to the free page list.
//
// Deleting an already-deleted region panics with a *Fault of kind
// FaultDeletedRegion: the paper's API nulls the caller's handle on success,
// which Go handles cannot express. TryDeleteRegion is the graceful variant
// and the primitive this method derives from (see docs/API.md).
func (rt *Runtime) DeleteRegion(r *Region) bool {
	ok, err := rt.TryDeleteRegion(r)
	if err != nil {
		panic(err)
	}
	return ok
}

// TryDeleteRegion is the deletion primitive. It reports whether r was
// deleted; live external references make it a failing no-op returning
// (false, nil), exactly like DeleteRegion. Misuse — deleting an
// already-deleted region — returns (false, *Fault) with kind
// FaultDeletedRegion instead of panicking. A nil region is an API-misuse
// panic, as everywhere else in the runtime.
func (rt *Runtime) TryDeleteRegion(r *Region) (bool, error) {
	if r == nil {
		panic("core: nil region")
	}
	if r.st.deleted {
		return false, rt.deletedFault(r)
	}

	if rt.safe {
		if rc := rt.quiescedRC(r); rc != 0 {
			rt.c.DeleteFails++
			if rt.tracer != nil {
				rt.tracer.Emit(trace.Event{Kind: trace.KindRegionDeleteFail,
					Region: r.id, Aux: int32(rc)})
			}
			return false, nil
		}
		rt.runCleanups(r)
	}

	// The string pool dies with the region: its blocks live on the string
	// pages released below, so only the host-side lists and gauges retire.
	rt.strPoolClear(r)

	// Return every page-list entry of both allocators to the free list. Both
	// list heads are read before anything is released: the region header
	// lives on the normal list's home page, and releasing poisons it. Under
	// DeferredDelete the same walk detaches instead: identical free-list
	// updates (so reuse order and the allocation address stream match the
	// synchronous path exactly), with poisoning and the per-page charge left
	// as sweep debt.
	old := rt.space.SetMode(stats.ModeFree)
	heads := [2]Ptr{rt.space.Load(r.hdr + offNormalFirst), rt.space.Load(r.hdr + offStringFirst)}
	for _, head := range heads {
		mustWalk(rt.walkList(FaultCorruptHeader, r, head, func(first Ptr, pages int) error {
			if rt.opts.DeferredDelete {
				rt.detachEntry(first, pages, r)
			} else {
				rt.releaseEntry(first, pages)
			}
			return nil
		}))
	}
	rt.space.SetMode(old)

	st := r.st
	st.deleted = true
	rt.c.RegionDeleted(uint64(st.bytes))
	if rt.tracer != nil {
		bytes := st.bytes
		if bytes > 1<<31-1 {
			bytes = 1<<31 - 1
		}
		rt.tracer.Emit(trace.Event{Kind: trace.KindRegionDelete, Region: r.id,
			Size: int32(bytes), Aux: int32(st.allocs)})
	}
	if m := rt.met; m != nil {
		metrics.Observe(regionLifetimeBounds[:], rt.t.RegionLifetime[:], &rt.t.RegionLifetimeSum, rt.c.TotalCycles()-st.born)
	}
	// A detached region keeps its state until the sweeper retires its last
	// page (sweep.go).
	if st.unswept == 0 {
		rt.retire(r, &deletedState)
	}
	return true, nil
}

// quiescedRC returns r's exact reference count, the read deleteregion's
// safety check (and export's) rests on. All frames but the active one are
// scanned; the active frame, which plays the role of deleteregion's own
// frame and is not itself scanned, is counted temporarily so the read is
// exact. Under the EagerLocals ablation the count is always exact and no
// scanning happens. The read is charged to ModeScan.
func (rt *Runtime) quiescedRC(r *Region) Word {
	var active *Frame
	if !rt.opts.EagerLocals {
		rt.stack.scanForDelete()
		if n := len(rt.stack.frames); n > 0 {
			active = rt.stack.frames[n-1]
		}
	}
	mode := rt.space.SetMode(stats.ModeScan)
	if active != nil {
		rt.stack.countFrame(active, +1)
	}
	rc := rt.space.Load(r.hdr + offRC)
	if active != nil {
		rt.stack.countFrame(active, -1)
	}
	rt.space.SetMode(mode)
	return rc
}

// FinalizeStats folds regions still live at the end of a run into the
// statistics (the Max. kbytes in region column counts them too).
func (rt *Runtime) FinalizeStats() {
	for _, r := range rt.regions {
		if !r.st.deleted && uint64(r.st.bytes) > rt.c.MaxRegionBytes {
			rt.c.MaxRegionBytes = uint64(r.st.bytes)
		}
	}
}

// Bytes returns the program-requested bytes live in r: allocated and not
// freed by RstrFree. It reads 0 once the region owns nothing.
func (r *Region) Bytes() uint64 { return uint64(r.st.bytes) }

// Allocs returns the number of allocations made in r so far. It reads 0
// once the region owns nothing.
func (r *Region) Allocs() uint64 { return r.st.allocs }

// Deleted reports whether r has been successfully deleted.
func (r *Region) Deleted() bool { return r.st.deleted }

// RC returns r's current (deferred, not necessarily exact) reference count.
// It exists for tests and diagnostics and charges no cycles.
func (rt *Runtime) RC(r *Region) Word {
	var rc Word
	rt.space.Uncharged(func() { rc = rt.space.Load(r.hdr + offRC) })
	return rc
}

// Word is re-exported for convenience in package users.
type Word = mem.Word

// Detached reports whether r has been deleted but still has pages awaiting
// the incremental sweeper (Options.DeferredDelete).
func (r *Region) Detached() bool { return r.st.deleted && r.st.unswept > 0 }

// Migrated reports whether r was handed off to another runtime by
// ExportRegion; such a handle is a tombstone and every operation on it
// faults with FaultMigratedRegion.
func (r *Region) Migrated() bool { return r.st.migrated }

// LiveRegions returns the runtime's live (not deleted, not migrated-away)
// regions in creation order. Host-side only: it charges no simulated cycles
// and exists for migration coordinators and diagnostics.
func (rt *Runtime) LiveRegions() []*Region {
	var out []*Region
	for _, r := range rt.regions {
		if !r.st.deleted {
			out = append(out, r)
		}
	}
	return out
}

// String implements fmt.Stringer for diagnostics.
func (r *Region) String() string {
	st := r.st
	state := "live"
	switch {
	case st.migrated: // the migrated state is deleted too
		state = "migrated"
	case st.deleted && st.unswept > 0:
		state = fmt.Sprintf("detached, %d unswept pages", st.unswept)
	case st.deleted:
		state = "deleted"
	}
	return fmt.Sprintf("region#%d(%s, %d bytes, %d allocs)", r.id, state, st.bytes, st.allocs)
}
