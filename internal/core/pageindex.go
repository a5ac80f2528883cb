package core

import "regions/internal/mem"

// This file holds the runtime's page bookkeeping structures, the data behind
// the paper's claim that regionof is "a few instructions" (Section 4.1): a
// dense page-indexed array mapping page numbers straight to region handles,
// size-bucketed free lists for multi-page spans, and an optional batched
// free-page cache that amortizes trips to the simulated OS.

// pageIndex is the page→region map: one *Region per page slot, nil for pages
// that belong to no region (unmapped, global storage, or free). Lookup is a
// shift, one bounds check, and one load — the O(1) fast path under every
// RegionOf, write barrier, and stack scan. The array is indexed by page
// number and grows monotonically with the simulated address space (a 32-bit
// space is at most 2^20 slots).
type pageIndex struct {
	owners []*Region
	// str marks the pages on their owner's string list: strEntry for an
	// entry's first page, whose first word is the entry's link, strMore for
	// the other pages of a multi-page entry, 0 for every other page. Every
	// ownership change (set) clears the mark; the string allocator and
	// region import mark the entries they link (setStr). RstrFree reads it
	// to tell string data from normal objects without walking the list.
	str []uint8
	// detached flags pages released by a deferred deletion but not yet
	// swept (Options.DeferredDelete): non-nil means the page is on a free
	// list with stale contents, and the value is the deleted region the
	// page came from, so Verify can reconcile per-region unswept counts.
	// Detached pages are always unowned; the two slices never mark the
	// same page.
	detached []*Region
}

// String-list page marks (pageIndex.str).
const (
	strEntry uint8 = 1 + iota
	strMore
)

// set records r (which may be nil, meaning "no region") as the owner of the
// n pages starting at the page containing first, clearing their string
// marks.
func (ix *pageIndex) set(first Ptr, n int, r *Region) {
	firstNo := int(first >> mem.PageShift)
	for len(ix.owners) < firstNo+n {
		ix.owners = append(ix.owners, nil)
		ix.str = append(ix.str, 0)
	}
	for i := 0; i < n; i++ {
		ix.owners[firstNo+i] = r
		ix.str[firstNo+i] = 0
	}
}

// setStr marks the n owned pages starting at first as one string-list
// entry.
func (ix *pageIndex) setStr(first Ptr, n int) {
	firstNo := int(first >> mem.PageShift)
	ix.str[firstNo] = strEntry
	for i := 1; i < n; i++ {
		ix.str[firstNo+i] = strMore
	}
}

// strAt returns page number pg's string-list mark.
func (ix *pageIndex) strAt(pg int) uint8 {
	if pg < 0 || pg >= len(ix.str) {
		return 0
	}
	return ix.str[pg]
}

// lookup returns the region owning the page containing p, or nil. Address 0
// lands on the reserved page 0, which is never owned, so the nil pointer
// needs no special case.
func (ix *pageIndex) lookup(p Ptr) *Region {
	pg := p >> mem.PageShift
	if pg >= Ptr(len(ix.owners)) {
		return nil
	}
	return ix.owners[pg]
}

// ownerAt returns the region owning page number pg, or nil.
func (ix *pageIndex) ownerAt(pg int) *Region {
	if pg < 0 || pg >= len(ix.owners) {
		return nil
	}
	return ix.owners[pg]
}

// setDetached flags the n pages starting at first as detached from region r.
func (ix *pageIndex) setDetached(first Ptr, n int, r *Region) {
	firstNo := int(first >> mem.PageShift)
	for len(ix.detached) < firstNo+n {
		ix.detached = append(ix.detached, nil)
	}
	for i := 0; i < n; i++ {
		ix.detached[firstNo+i] = r
	}
}

// detachedAt returns the deleted region page number pg was detached from,
// or nil if the page is not awaiting a sweep.
func (ix *pageIndex) detachedAt(pg int) *Region {
	if pg < 0 || pg >= len(ix.detached) {
		return nil
	}
	return ix.detached[pg]
}

// clearDetached removes page number pg's detached flag.
func (ix *pageIndex) clearDetached(pg int) {
	if pg >= 0 && pg < len(ix.detached) {
		ix.detached[pg] = nil
	}
}

// spanBucketMax is the largest page count with a dedicated free-list bucket.
// Multi-page entries come from rarrayalloc/rstralloc requests over 4 KB;
// nearly all of them are a handful of pages, so counts 2..spanBucketMax get
// O(1) push/pop buckets and anything larger goes to a short overflow list
// searched linearly.
const spanBucketMax = 16

// span is one freed multi-page entry on the overflow list.
type span struct {
	first Ptr
	pages int
}

// freeSpanTable holds freed multi-page entries, bucketed by page count. It
// replaces a map[int][]Ptr: the hot take/put operations on common span sizes
// are now an array index instead of a hashed map access.
type freeSpanTable struct {
	buckets [spanBucketMax + 1][]Ptr // index = page count; 0 and 1 unused
	large   []span                   // page counts beyond spanBucketMax
}

// take removes and returns a freed span of exactly n pages, or 0 if none is
// available. Spans are reused only at their original size, as the paper's
// free page list reuses whole entries.
func (t *freeSpanTable) take(n int) Ptr {
	if n <= spanBucketMax {
		b := t.buckets[n]
		if len(b) == 0 {
			return 0
		}
		p := b[len(b)-1]
		t.buckets[n] = b[:len(b)-1]
		return p
	}
	for i := len(t.large) - 1; i >= 0; i-- {
		if t.large[i].pages == n {
			p := t.large[i].first
			t.large = append(t.large[:i], t.large[i+1:]...)
			return p
		}
	}
	return 0
}

// put adds a freed span of n pages starting at first.
func (t *freeSpanTable) put(first Ptr, n int) {
	if n <= spanBucketMax {
		t.buckets[n] = append(t.buckets[n], first)
		return
	}
	t.large = append(t.large, span{first, n})
}

// forEach visits every freed span (for Verify and diagnostics).
func (t *freeSpanTable) forEach(f func(first Ptr, pages int) *Fault) *Fault {
	for n, b := range t.buckets {
		for _, p := range b {
			if fault := f(p, n); fault != nil {
				return fault
			}
		}
	}
	for _, s := range t.large {
		if fault := f(s.first, s.pages); fault != nil {
			return fault
		}
	}
	return nil
}

// refillPageCache maps a batch of pages from the simulated OS into the free
// page list in one call, so steady-state region create/delete cycles and
// page-list growth stop paying one OS round trip per page. The fresh pages
// are poisoned like any other free page (uncharged; freed and not-yet-issued
// memory is outside the machine model), preserving Verify's free-page
// invariant; the acquire path re-zeroes them before handing them out.
//
// A refused batch is not an error: the caller falls back to a single-page
// request, so a page limit or injected fault plan still bites at the same
// allocation it would have without the cache.
func (rt *Runtime) refillPageCache() {
	batch := rt.opts.PageBatch
	if batch <= 1 {
		return
	}
	p := rt.space.MapPages(batch)
	if p == 0 {
		return
	}
	for i := 0; i < batch; i++ {
		pg := p + Ptr(i)<<mem.PageShift
		rt.space.PoisonPageFree(pg)
		rt.freePages = append(rt.freePages, pg)
	}
}
