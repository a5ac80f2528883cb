package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"regions/internal/mem"
	"regions/internal/stats"
	"regions/internal/trace"
)

// This file implements live region migration between runtimes (ROADMAP item
// 2): ExportRegion serializes a quiesced region into a portable RegionRecord
// and ImportRegion materializes that record in another runtime's address
// space. What makes this tractable is the paper's own representation —
// regions are self-describing page lists (Section 3), so a region whose
// reference count is zero can be relocated wholesale: copy the page
// payloads, rebuild the links from the recorded run order, and fix up
// intra-region pointers with a per-page base-delta rewrite. No object graph
// tracing is needed; translation is O(pages), not O(objects reachable).
//
// The contract mirrors deleteregion's: a region is exportable exactly when
// it is deletable (exact reference count zero after the deferred stack scan),
// because that is the proof that no pointer outside the region's own pages —
// heap, global, or tracked frame slot — will dangle when the pages move.
// Two additional refusals keep the record self-contained: a region whose
// scanned data points into *another* region cannot be exported (those
// pointers would dangle in the target's address space), and a record whose
// cleanups are not registered on the importing runtime cannot be imported
// (cleanup ids are remapped by registered name, so the two runtimes may have
// registered in different orders, but every used name must exist).
//
// The export side leaves a tombstone: the handle points at the shared
// migrated state (its own state goes to the spare list, see retire) and
// every subsequent operation on it faults with FaultMigratedRegion, so a
// stale handle is a diagnosable error rather than a silent touch of recycled
// pages. Neither side runs Verify itself — the shard migration coordinator
// runs it on donor and receiver around the handoff, as do the tests.
//
// Caveats, both inherited from verifyRC's C@ discipline assumption: a
// scanned-data integer that happens to equal a region address is
// indistinguishable from a pointer (it will be refused as a cross-region
// reference or translated as an intra-region one), and cleanup size
// functions are dry-run during the import rewrite on not-yet-translated
// data, so they must compute sizes without dereferencing region pointers.

// Sentinel causes for migration refusals, exposed for errors.Is. The
// returned errors wrap these with the region and offending address.
var (
	// ErrExportReferenced: the region's exact reference count is nonzero —
	// heap words, global storage, or tracked frame slots still point into
	// it, exactly the condition that makes deleteregion a failing no-op.
	ErrExportReferenced = errors.New("region has live external references")
	// ErrExportCrossRegion: the region's scanned data points into another
	// region of the source runtime; those pointers would dangle after the
	// move.
	ErrExportCrossRegion = errors.New("region data points into another region")
	// ErrImportCleanup: the record references a cleanup name not registered
	// on the importing runtime.
	ErrImportCleanup = errors.New("cleanup not registered on importing runtime")
)

// PageRun is one page-list entry's payload in a RegionRecord: the entry's
// address in the source address space, its page count, and every word of its
// pages verbatim (links and headers included; the import side rewrites them).
type PageRun struct {
	OldFirst Ptr
	Pages    int
	Words    []Word
}

// StrPoolRecord is one parked string-pool block (see strpool.go) in a
// RegionRecord: its source-space address and recorded capacity. Import
// remaps the address through the page placement and re-parks the block,
// so explicit string frees survive a migration.
type StrPoolRecord struct {
	OldAddr Ptr
	Cap     int32
}

// CleanupRef names one cleanup id used by objects in the record. Import
// remaps ids by Name, so source and target runtimes may have registered
// their cleanups in different orders.
type CleanupRef struct {
	ID   CleanupID
	Name string
}

// RegionRecord is a quiesced region serialized for transport between
// runtimes: everything ImportRegion needs to rebuild the region — page runs
// of both allocators in list order, the header location, and the cleanup
// names its objects reference. The record addresses are source-space;
// nothing in it is live, so it can cross goroutines freely.
type RegionRecord struct {
	SourceRegion int32  // region id on the exporting runtime
	Bytes        uint64 // program-requested bytes, carried for Table 2 stats
	Allocs       uint64
	OldHdr       Ptr       // region structure address in the source space
	Normal       []PageRun // normal-allocator entries, head first
	Str          []PageRun // string-allocator entries, head first
	Cleanups     []CleanupRef
	StrPool      []StrPoolRecord // parked string-pool blocks, class order
	Pages        int             // total pages across both lists

	// newPages is the old-page→new-page placement of the last successful
	// ImportRegion of this record, backing Translate.
	newPages map[Ptr]Ptr
}

// Translate maps a source-space pointer into the imported region's new
// address space: same page offset, relocated page. It reports false until
// the record has been successfully imported, and for pointers outside the
// record's pages. This is how a caller that held roots into the region
// before the export (untracked Go-side Ptr values, like a driver's chain
// head) re-finds them after the move.
func (rec *RegionRecord) Translate(p Ptr) (Ptr, bool) {
	npg, ok := rec.newPages[p>>mem.PageShift]
	if !ok {
		return 0, false
	}
	return npg<<mem.PageShift | p&Ptr(mem.PageSize-1), true
}

// ExportRegion serializes r into a portable record and releases its pages,
// leaving the handle a tombstone (Migrated() true; every operation faults
// with FaultMigratedRegion). The region must be quiesced: its exact
// reference count must be zero — the same deferred stack scan deleteregion
// performs runs first — and its scanned data must not point into any other
// region. A handle this runtime does not own (another runtime's region) is
// refused as a FaultBadArgument *Fault before anything is charged. On
// refusal (that fault, ErrExportReferenced, ErrExportCrossRegion) the
// region is untouched.
//
// Charges: the RC check charges as deleteregion's does (ModeScan); page
// release charges the synchronous 1+n per entry (ModeFree). Serialization
// itself is host-side and uncharged — the payload copy models a DMA out of
// the simulated machine.
func (rt *Runtime) ExportRegion(r *Region) (*RegionRecord, error) {
	if r == nil {
		panic("core: nil region")
	}
	if r.st.deleted {
		return nil, rt.deletedFault(r)
	}
	if !rt.owns(r) {
		return nil, rt.fault(FaultBadArgument, r.hdr, r.id, "exportregion: region is not this runtime's", nil)
	}

	if rt.safe {
		if rc := rt.quiescedRC(r); rc != 0 {
			return nil, fmt.Errorf("core: exportregion region#%d: reference count %d: %w",
				r.id, rc, ErrExportReferenced)
		}
	}

	rec := &RegionRecord{SourceRegion: r.id, Bytes: uint64(r.st.bytes), Allocs: r.st.allocs, OldHdr: r.hdr}
	var serr error
	rt.space.Uncharged(func() { serr = rt.serializeRegion(r, rec) })
	if serr != nil {
		return nil, serr
	}

	// Release every page run synchronously (even under DeferredDelete: the
	// payload has been copied out and the free pages must be poisoned, not
	// detached, because no sweep will ever re-derive their contents).
	old := rt.space.SetMode(stats.ModeFree)
	for _, run := range rec.Normal {
		rt.releaseEntry(run.OldFirst, run.Pages)
	}
	for _, run := range rec.Str {
		rt.releaseEntry(run.OldFirst, run.Pages)
	}
	rt.space.SetMode(old)

	// The pool's block memory just left with the pages; retire the host-side
	// lists (keeping the occupancy gauges exact).
	rt.strPoolClear(r)

	rt.retire(r, &migratedState)
	rt.c.LiveRegions--
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindMigrate, Region: r.id,
			Addr: rec.OldHdr, Size: int32(rec.Pages), Aux: 0})
	}
	return rec, nil
}

// Exportable reports whether r would pass ExportRegion's refusals right
// now: live, owned by this runtime, exact reference count zero, and no
// scanned data word pointing into another region. The reference-count
// probe charges what deleteregion's scan charges (ModeScan); the data scan
// is host-side and uncharged. A true result is advisory — the runtime's
// next task can invalidate it — so callers probe from the goroutine that
// owns the runtime and act before running anything else on it.
func (rt *Runtime) Exportable(r *Region) bool {
	if r == nil || r.st.deleted || !rt.owns(r) {
		return false
	}
	if rt.safe && rt.quiescedRC(r) != 0 {
		return false
	}
	ok := true
	rt.space.Uncharged(func() {
		ok = rt.exportScan(r, map[CleanupID]bool{}) == nil
	})
	return ok
}

// owns reports whether the live handle r is one of this runtime's regions:
// the page holding its header is indexed to r itself. Another runtime's
// region may have its header at the same address, so the address alone
// proves nothing.
func (rt *Runtime) owns(r *Region) bool { return rt.pages.lookup(r.hdr) == r }

// serializeRegion fills rec from r: the used-cleanup census plus the
// cross-region refusal (one object walk), then both page lists verbatim.
// Runs uncharged; the heap is not mutated.
func (rt *Runtime) serializeRegion(r *Region, rec *RegionRecord) error {
	used := map[CleanupID]bool{}
	if err := rt.exportScan(r, used); err != nil {
		return err
	}
	ids := make([]CleanupID, 0, len(used))
	for id := range used {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rec.Cleanups = append(rec.Cleanups, CleanupRef{ID: id, Name: rt.cleanups[id-1].name})
	}
	var err error
	if rec.Normal, err = rt.serializeList(r, rt.space.Load(r.hdr+offNormalFirst)); err != nil {
		return err
	}
	if rec.Str, err = rt.serializeList(r, rt.space.Load(r.hdr+offStringFirst)); err != nil {
		return err
	}
	for _, run := range rec.Normal {
		rec.Pages += run.Pages
	}
	for _, run := range rec.Str {
		rec.Pages += run.Pages
	}
	// Parked string-pool blocks, in class-then-list order so the record is
	// deterministic for a given pool state.
	if r.st.pool != nil {
		for _, list := range r.st.pool.classes {
			for _, b := range list {
				rec.StrPool = append(rec.StrPool, StrPoolRecord{OldAddr: b.p, Cap: b.cap})
			}
		}
	}
	return nil
}

// serializeList copies every entry of one of r's page lists, head first.
func (rt *Runtime) serializeList(r *Region, entry Ptr) ([]PageRun, error) {
	var runs []PageRun
	err := rt.walkList(FaultCorruptHeader, r, entry, func(first Ptr, pages int) error {
		words := make([]Word, pages*mem.PageSize/mem.WordSize)
		for i := range words {
			words[i] = rt.space.Load(first + Ptr(i*mem.WordSize))
		}
		runs = append(runs, PageRun{OldFirst: first, Pages: pages, Words: words})
		return nil
	})
	return runs, err
}

// exportScan walks r's objects the way deleteregion's cleanup pass would,
// collecting the cleanup ids in use and refusing any data word that points
// into another region. Cleanup size functions are dry-run (Destroy disabled)
// to find non-array extents, as in Verify.
func (rt *Runtime) exportScan(r *Region, used map[CleanupID]bool) error {
	rt.verifying = true
	defer func() { rt.verifying = false }()
	return rt.walkObjects(FaultCorruptHeader, r, nil, func(o object) error {
		used[o.id] = true
		for a := o.data; a < o.end; a += mem.WordSize {
			w := rt.space.Load(a)
			if w == 0 {
				continue
			}
			if t := rt.pages.lookup(Ptr(w)); t != nil && t != r {
				return fmt.Errorf("core: exportregion region#%d: word at %#x points into region#%d: %w",
					r.id, a, t.id, ErrExportCrossRegion)
			}
		}
		return nil
	})
}

// ImportRegion materializes rec in this runtime and returns the new live
// region handle. Pages are acquired through the normal allocator path (free
// lists first, then the simulated OS — a refused mapping rolls every
// acquired run back and returns a FaultOOM error, leaving the runtime
// unchanged). Cleanup ids are remapped by registered name; a missing name
// is an ErrImportCleanup error. A record no export could have produced (see
// checkRecord) is a FaultBadArgument *Fault. Both are returned before
// anything is acquired or charged. A record whose data, once placed, holds
// a word pointing into another region of this runtime (importScan), or
// whose normal bump offset is not where its head entry's objects end
// (materialize), is rolled back and refused with a FaultBadArgument *Fault
// too.
//
// The pointer fixup is the O(pages) base-delta rewrite: a per-page old→new
// map built from the run placements, applied object-aware — headers get the
// remapped cleanup id, array bookkeeping is skipped, and every scanned data
// word whose page moved is rewritten to the same offset on the destination
// page. String-allocator payloads are pointer-free by contract and copied
// verbatim. The rewrite charges 2 ModeAlloc cycles per page, the
// import-side counterpart of release's 1+n; the payload copy itself is
// uncharged, the inbound half of the export's DMA.
func (rt *Runtime) ImportRegion(rec *RegionRecord) (*Region, error) {
	if rec == nil {
		panic("core: nil region record")
	}
	homeIdx, err := rt.checkRecord(rec)
	if err != nil {
		return nil, err
	}
	idMap := make(map[CleanupID]CleanupID, len(rec.Cleanups))
	for _, ref := range rec.Cleanups {
		var nid CleanupID
		for i := range rt.cleanups {
			if rt.cleanups[i].name == ref.Name {
				nid = CleanupID(i + 1)
				break
			}
		}
		if nid == 0 {
			return nil, fmt.Errorf("core: importregion: %q: %w", ref.Name, ErrImportCleanup)
		}
		idMap[ref.ID] = nid
	}

	old := rt.space.SetMode(stats.ModeAlloc)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeAlloc, 3)

	r := &Region{id: rt.nextID}

	type run struct {
		first Ptr
		pages int
	}
	var acquired []run
	rollback := func() {
		mode := rt.space.SetMode(stats.ModeFree)
		for _, a := range acquired {
			rt.releaseEntry(a.first, a.pages)
		}
		rt.space.SetMode(mode)
	}
	place := func(runs []PageRun) []Ptr {
		news := make([]Ptr, len(runs))
		for i := range runs {
			p := rt.acquirePages(runs[i].Pages, r)
			if p == 0 {
				return nil
			}
			acquired = append(acquired, run{p, runs[i].Pages})
			news[i] = p
		}
		return news
	}
	newNormal := place(rec.Normal)
	if newNormal == nil {
		rollback()
		return nil, rt.oomFault("importregion", r.id)
	}
	newStr := place(rec.Str)
	if newStr == nil && len(rec.Str) > 0 {
		rollback()
		return nil, rt.oomFault("importregion", r.id)
	}
	for i, run := range rec.Str {
		rt.pages.setStr(newStr[i], run.Pages)
	}

	pageMap := make(map[Ptr]Ptr, rec.Pages)
	note := func(runs []PageRun, news []Ptr) {
		for i := range runs {
			for j := 0; j < runs[i].Pages; j++ {
				pageMap[runs[i].OldFirst>>mem.PageShift+Ptr(j)] = news[i]>>mem.PageShift + Ptr(j)
			}
		}
	}
	note(rec.Normal, newNormal)
	note(rec.Str, newStr)
	r.hdr = newNormal[homeIdx] + (rec.OldHdr - rec.Normal[homeIdx].OldFirst)

	var werr error
	var strTop Ptr
	rt.space.Uncharged(func() {
		werr = rt.materialize(rec, r, newNormal, newStr, idMap, pageMap)
		if werr == nil {
			werr = rt.importScan(r)
		}
		if len(rec.Str) > 0 && rec.Str[0].Pages == 1 {
			strTop = newStr[0] + rt.space.Load(r.hdr+offStringAvail)
		}
	})
	if werr != nil {
		rollback()
		return nil, werr
	}
	rt.charge(stats.ModeAlloc, 2*uint64(rec.Pages))
	rec.newPages = pageMap

	r.st = rt.takeState()
	r.st.strTop = strTop
	r.st.bytes = uint32(rec.Bytes)
	r.st.allocs = rec.Allocs
	r.st.born = rt.c.TotalCycles()
	rt.addRegion(r)

	// Re-park the record's string-pool blocks at their relocated addresses.
	// A receiver with pooling disabled drops them: their memory stays dead
	// until the region dies, exactly as if it had been freed here unpooled.
	// Blocks are re-poisoned rather than trusted to arrive poisoned: a
	// record is plain data its holder may build or edit, and this runtime's
	// Verify must not rest on the exporter's heap having kept the
	// discipline.
	for _, b := range rec.StrPool {
		if rt.opts.NoStrPool {
			continue
		}
		npg, ok := pageMap[b.OldAddr>>mem.PageShift]
		if !ok {
			continue // unreachable for a well-formed record
		}
		np := npg<<mem.PageShift | b.OldAddr&Ptr(mem.PageSize-1)
		rt.space.PoisonRange(np, int(b.Cap))
		rt.strPoolPut(r, np, int(b.Cap))
	}
	rt.c.LiveRegions++
	if rt.c.LiveRegions > rt.c.MaxLiveRegions {
		rt.c.MaxLiveRegions = rt.c.LiveRegions
	}
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindMigrate, Region: r.id,
			Addr: r.hdr, Size: int32(rec.Pages), Aux: 1})
	}
	return r, nil
}

// checkRecord returns the index of rec's home run, the normal run whose
// first page holds the region structure, or a FaultBadArgument *Fault for
// a record no export could have produced. It reads only the record, so a
// rejected import acquires and charges nothing.
//
//   - Shape: every run is 1 to maxEntryPages pages at a nonzero
//     page-aligned address inside the 32-bit space and carries exactly its
//     pages' words, Pages is the runs' sum, and Bytes fits in those pages.
//   - Region structure: word-aligned on the first page of a normal run,
//     past the link word and inside the page. Both bump offsets are
//     word-aligned and at most a page; a multi-page head entry's is a page
//     (the entry is full), a one-page string head's is past its link word,
//     and the normal head page holds nothing but zeros from its offset on,
//     the space bump hands out next. materialize checks that the normal
//     offset is where the head entry's objects end.
//   - Parked string blocks: each one RstrFree could have parked
//     (parkable), none past the head string page's bump offset, and no two
//     overlapping.
func (rt *Runtime) checkRecord(rec *RegionRecord) (int, error) {
	bad := func(addr Ptr, format string, args ...any) (int, error) {
		return -1, rt.fault(FaultBadArgument, addr, -1, "importregion: "+fmt.Sprintf(format, args...), nil)
	}
	if len(rec.Normal) == 0 {
		return bad(0, "record has no normal-list pages")
	}
	pages := 0
	for _, runs := range [2][]PageRun{rec.Normal, rec.Str} {
		for _, run := range runs {
			if run.Pages < 1 || run.Pages > maxEntryPages || run.OldFirst == 0 || run.OldFirst%mem.PageSize != 0 ||
				uint64(run.OldFirst)+uint64(run.Pages)*mem.PageSize > 1<<32 {
				return bad(run.OldFirst, "run of %d pages at %#x", run.Pages, run.OldFirst)
			}
			if len(run.Words) != run.Pages*mem.PageWords {
				return bad(run.OldFirst, "run of %d pages at %#x carries %d words, not %d",
					run.Pages, run.OldFirst, len(run.Words), run.Pages*mem.PageWords)
			}
			pages += run.Pages
		}
	}
	if rec.Pages != pages {
		return bad(0, "record counts %d pages, its runs hold %d", rec.Pages, pages)
	}
	if rec.Bytes > uint64(pages)*mem.PageSize {
		return bad(0, "%d live bytes do not fit in the record's %d pages", rec.Bytes, pages)
	}

	home := slices.IndexFunc(rec.Normal, func(run PageRun) bool {
		return run.OldFirst == rec.OldHdr&^Ptr(mem.PageSize-1)
	})
	off := int(rec.OldHdr % mem.PageSize)
	if home < 0 || off%mem.WordSize != 0 || off < mem.WordSize || off+hdrBytes > mem.PageSize {
		return bad(rec.OldHdr, "region structure at %#x is not inside the first page of a normal run", rec.OldHdr)
	}
	hdr := rec.Normal[home].Words[off/mem.WordSize:]
	normalAvail, strAvail := hdr[offNormalAvail/mem.WordSize], hdr[offStringAvail/mem.WordSize]
	if normalAvail > mem.PageSize || strAvail > mem.PageSize || (normalAvail|strAvail)%mem.WordSize != 0 {
		return bad(rec.OldHdr, "bump offsets %d and %d, unaligned or past a page", normalAvail, strAvail)
	}
	// bump fills a list's head entry from its offset on, so a multi-page
	// head must be full and a one-page string head must keep its link word.
	if rec.Normal[0].Pages > 1 && normalAvail != mem.PageSize ||
		len(rec.Str) > 0 && (rec.Str[0].Pages > 1 && strAvail != mem.PageSize || strAvail < mem.WordSize) {
		return bad(rec.OldHdr, "bump offsets %d and %d do not fit their head entries", normalAvail, strAvail)
	}
	if slices.ContainsFunc(rec.Normal[0].Words[normalAvail/mem.WordSize:mem.PageWords], func(w Word) bool { return w != 0 }) {
		return bad(rec.Normal[0].OldFirst, "normal head page holds data past its bump offset %d", normalAvail)
	}

	blocks := slices.Clone(rec.StrPool)
	slices.SortFunc(blocks, func(a, b StrPoolRecord) int { return cmp.Compare(a.OldAddr, b.OldAddr) })
	for i, b := range blocks {
		switch {
		case !parkable(rec.Str, b):
			return bad(b.OldAddr, "parked string block [%#x,+%d) is no pooled block on the record's string runs",
				b.OldAddr, b.Cap)
		case b.OldAddr&^Ptr(mem.PageSize-1) == rec.Str[0].OldFirst && b.OldAddr%mem.PageSize+Ptr(b.Cap) > strAvail:
			return bad(b.OldAddr, "parked string block [%#x,+%d) runs past the head page's bump offset %d",
				b.OldAddr, b.Cap, strAvail)
		case i > 0 && uint64(blocks[i-1].OldAddr)+uint64(blocks[i-1].Cap) > uint64(b.OldAddr):
			return bad(b.OldAddr, "parked string blocks [%#x,+%d) and [%#x,+%d) overlap",
				blocks[i-1].OldAddr, blocks[i-1].Cap, b.OldAddr, b.Cap)
		}
	}
	return home, nil
}

// importScan refuses the freshly materialized region r, with a
// FaultBadArgument *Fault, when one of its normal pages holds a word that
// points into another region of this runtime. Verify counts every such word
// as a reference to that region, and none of them was counted: a record
// built or edited by its holder can carry words no export would let out.
func (rt *Runtime) importScan(r *Region) error {
	var err error
	rt.forEachDataWord(r, func(a Ptr, v Word) {
		if t := rt.pages.lookup(v); err == nil && t != nil && t != r {
			err = rt.fault(FaultBadArgument, a, r.id,
				fmt.Sprintf("importregion: word at %#x points into region#%d", a, t.id), nil)
		}
	})
	return err
}

// parkable reports whether the parked block b of a record could have come
// from RstrFree: a word-aligned pooled capacity inside one page of one of
// the string runs, past the page's first word — the shape Verify's pool
// audit accepts.
func parkable(runs []PageRun, b StrPoolRecord) bool {
	cap, off := int(b.Cap), int(b.OldAddr%mem.PageSize)
	if cap < strClassMin || cap > defaultStrPoolMax || cap%mem.WordSize != 0 ||
		b.OldAddr%mem.WordSize != 0 || off < mem.WordSize || off+cap > mem.PageSize {
		return false
	}
	for _, run := range runs {
		if b.OldAddr >= run.OldFirst && uint64(b.OldAddr) < uint64(run.OldFirst)+uint64(run.Pages)*mem.PageSize {
			return true
		}
	}
	return false
}

// materialize copies the record's payload onto the freshly acquired (zeroed)
// runs of r, whose header address is already set, and performs every fixup:
// link words rebuilt from the run order, region structure repointed, cleanup
// ids remapped, and intra-region pointers translated page-by-page. Runs
// uncharged. An error (a record whose objects name a cleanup absent from its
// own Cleanups table, a malformed layout, or a normal bump offset that is not
// where the head entry's objects end, so the next allocation would overwrite
// them or sit where no walk finds it) leaves only the acquired pages dirty;
// the caller releases them.
func (rt *Runtime) materialize(rec *RegionRecord, r *Region, newNormal, newStr []Ptr,
	idMap map[CleanupID]CleanupID, pageMap map[Ptr]Ptr) error {
	copyRuns := func(runs []PageRun, news []Ptr) {
		for i := range runs {
			for j, w := range runs[i].Words {
				if w != 0 {
					rt.space.Store(news[i]+Ptr(j*mem.WordSize), w)
				}
			}
		}
	}
	copyRuns(rec.Normal, newNormal)
	copyRuns(rec.Str, newStr)

	// Rebuild the link words: entry i links to entry i+1 of its own list,
	// keeping each entry's page count in the low bits.
	relink := func(runs []PageRun, news []Ptr) {
		for i := range runs {
			var next Ptr
			if i+1 < len(runs) {
				next = news[i+1]
			}
			rt.space.Store(news[i]+pageLink, next|Ptr(runs[i].Pages-1))
		}
	}
	relink(rec.Normal, newNormal)
	relink(rec.Str, newStr)

	// Region structure: count stays zero (the region arrives quiesced), the
	// list heads move, the bump offsets carry over verbatim with the copy.
	rt.space.Store(r.hdr+offRC, 0)
	rt.space.Store(r.hdr+offNormalFirst, newNormal[0])
	if len(newStr) > 0 {
		rt.space.Store(r.hdr+offStringFirst, newStr[0])
	} else {
		rt.space.Store(r.hdr+offStringFirst, 0)
	}

	// Object-aware pointer rewrite down the relinked normal list: each
	// header gets its cleanup's id on this runtime, and every data word
	// whose page moved is rewritten to the same offset on the new page.
	rt.verifying = true
	defer func() { rt.verifying = false }()
	remap := func(id CleanupID) CleanupID { return idMap[id] }
	// filled is where the head entry's objects end: the walk visits the
	// head first, its objects in address order.
	head, headPages := uint64(newNormal[0]), uint64(rec.Normal[0].Pages)
	filled := head + mem.WordSize
	if newNormal[0] == r.hdr&^Ptr(mem.PageSize-1) {
		filled = uint64(r.hdr) + hdrBytes
	}
	if err := rt.walkObjects(FaultCorruptHeader, r, remap, func(o object) error {
		rt.space.Store(o.at, rt.encodeCleanup(o.id, o.n >= 0))
		for a := o.data; a < o.end; a += mem.WordSize {
			w := rt.space.Load(a)
			if w == 0 {
				continue
			}
			if npg, ok := pageMap[Ptr(w)>>mem.PageShift]; ok {
				rt.space.Store(a, npg<<mem.PageShift|w&Ptr(mem.PageSize-1))
			}
		}
		if uint64(o.at)-head < headPages*mem.PageSize {
			filled = uint64(o.end)
		}
		return nil
	}); err != nil {
		return err
	}
	if avail := rt.space.Load(r.hdr + offNormalAvail); head+uint64(avail) != filled {
		return rt.fault(FaultBadArgument, r.hdr+offNormalAvail, r.id, fmt.Sprintf(
			"importregion: normal bump offset %d, but the head entry's objects end at %d", avail, filled-head), nil)
	}
	return nil
}

// ContentChecksum folds r's live contents into a placement-independent
// digest: equal before an export and after the matching import, and equal
// across runtimes regardless of where pages landed. Word locations are
// folded as (page ordinal in list order, offset), and a scanned word that
// points into the region's own pages is folded in the same relative form, so
// the translation ImportRegion performs cancels out. Host-side and
// uncharged; the shard determinism gate and the migration tests are its
// consumers.
//
// Comparability requires what migration itself requires: both runtimes
// registered the object's cleanups (ids are folded raw, so identical
// registration order — or the id remap import performs — keeps them equal),
// and scanned integers don't alias region addresses. Array bookkeeping words
// are folded raw, matching the import rewrite's skip.
func (rt *Runtime) ContentChecksum(r *Region) uint32 {
	if r == nil {
		panic("core: nil region")
	}
	if r.st.deleted {
		panic(rt.deletedFault(r))
	}
	var h uint32
	rt.space.Uncharged(func() { h = rt.contentChecksum(r) })
	return h
}

func (rt *Runtime) contentChecksum(r *Region) uint32 {
	// Number the region's pages in page-list order (normal first, then
	// string); the ordinal survives relocation, the page number does not.
	ord := map[Ptr]uint32{}
	heads := [2]Ptr{rt.space.Load(r.hdr + offNormalFirst), rt.space.Load(r.hdr + offStringFirst)}
	for _, head := range heads {
		mustWalk(rt.walkList(FaultCorruptHeader, r, head, func(first Ptr, pages int) error {
			for i := 0; i < pages; i++ {
				ord[first>>mem.PageShift+Ptr(i)] = uint32(len(ord))
			}
			return nil
		}))
	}

	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	// Relative form of an address: (page ordinal, in-page offset), with the
	// region structure's colored offset subtracted out on the home page so
	// two regions differing only in their coloring accident digest equal.
	homePg := r.hdr >> mem.PageShift
	homeOff := uint32(r.hdr) & (mem.PageSize - 1)
	rel := func(p Ptr) uint32 {
		off := uint32(p) & (mem.PageSize - 1)
		if p>>mem.PageShift == homePg {
			off = (off - homeOff) & (mem.PageSize - 1)
		}
		return ord[p>>mem.PageShift]<<mem.PageShift | off
	}
	rt.forEachNormalWord(r, func(a Ptr, v Word) {
		mix(rel(a))
		if _, ok := ord[Ptr(v)>>mem.PageShift]; ok {
			// Intra-region pointer (or an integer aliasing one): fold its
			// relative form, marked so it cannot collide with a raw word.
			mix(1<<31 | rel(Ptr(v)))
		} else {
			mix(uint32(v))
		}
	})
	// String-allocator payloads are pointer-free: fold raw, skip the links.
	mustWalk(rt.walkList(FaultCorruptHeader, r, heads[1], func(first Ptr, pages int) error {
		end := first + Ptr(pages*mem.PageSize)
		for a := first + mem.WordSize; a < end; a += mem.WordSize {
			if v := rt.space.Load(a); v != 0 {
				mix(rel(a))
				mix(uint32(v))
			}
		}
		return nil
	}))
	return h
}
