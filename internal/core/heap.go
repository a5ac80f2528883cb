package core

import (
	"sort"

	"regions/internal/mem"
	"regions/internal/metrics"
)

// This file is the runtime's single heap-structure walk. Verify and the
// heap profiler used to duplicate it (as did Referrers, with a third copy
// of the entry iteration); now heapWalk audits the structural invariants —
// page census, page↔region map agreement, free-list poison, object-header
// parse — and, when asked, builds the machine-readable per-region report
// (metrics.HeapReport) behind cmd/regionstat and regionbench's /heap
// endpoint. One walk, two consumers: the profiler sees exactly the heap the
// verifier certifies, and a structurally broken heap yields a fault, not a
// bogus profile.

// HeapReport captures a per-region heap profile: page census, live bytes,
// occupancy, internal fragmentation, the string-vs-scanned split, and a
// live-object census by allocation site. The walk is uncharged and
// read-only, and it performs the same structural checks as Verify steps
// 1-5, so the report comes certified: a corrupt heap returns an error
// (*Fault of kind FaultInvariant) instead. Stack and reference-count
// invariants (Verify steps 6-7) are not checked here.
func (rt *Runtime) HeapReport() (*metrics.HeapReport, error) {
	var rep *metrics.HeapReport
	var f *Fault
	rt.space.Uncharged(func() { rep, f = rt.heapWalk(true) })
	if f != nil {
		return nil, f
	}
	return rep, nil
}

// heapWalk audits the heap's structural invariants (Verify steps 1-5) and,
// when collect is set, accumulates the per-region heap report along the
// way. With collect false it allocates nothing beyond the census map and
// behaves exactly as the verifier always has.
func (rt *Runtime) heapWalk(collect bool) (*metrics.HeapReport, *Fault) {
	seen := make(map[int]int32) // page number -> region whose list claims it

	var rep *metrics.HeapReport
	byID := map[int32]*metrics.RegionHeap{}
	if collect {
		rep = &metrics.HeapReport{
			SchemaVersion: metrics.HeapSchemaVersion,
			CapturedCycle: rt.c.TotalCycles(),
			MappedBytes:   rt.space.MappedBytes(),
			FreePages:     len(rt.freePages),
		}
	}

	// 1. Page census.
	for _, r := range rt.regions {
		if r.deleted {
			continue
		}
		if !rt.space.Mapped(r.hdr) {
			return nil, rt.invariant(r.hdr, r.id, "region header unmapped")
		}
		var rh *metrics.RegionHeap
		if collect {
			rep.Regions = append(rep.Regions, metrics.RegionHeap{
				ID: r.id, LiveBytes: r.bytes, Allocs: r.allocs,
			})
			rh = &rep.Regions[len(rep.Regions)-1]
			byID[r.id] = rh
		}
		var strPages map[int]bool // string-list page census for the pool audit
		var strHead, strAvail Ptr
		if r.strPool != nil {
			strPages = map[int]bool{}
		}
		for li, offs := range [2][2]Ptr{{offNormalFirst, offNormalAvail}, {offStringFirst, offStringAvail}} {
			avail := rt.space.Load(r.hdr + offs[1])
			if avail > mem.PageSize {
				return nil, rt.invariant(r.hdr+offs[1], r.id,
					"allocation offset %d exceeds page size", avail)
			}
			entry := rt.space.Load(r.hdr + offs[0])
			if rh != nil && entry != 0 {
				// Remaining bump space on the list's head page.
				rh.FreeBytes += uint64(mem.PageSize - avail)
			}
			if li == 1 {
				strHead, strAvail = entry, avail
			}
			steps := 0
			for entry != 0 {
				if steps++; steps > rt.space.NumPages() {
					return nil, rt.invariant(entry, r.id, "page list cycle")
				}
				if entry&(mem.PageSize-1) != 0 {
					return nil, rt.invariant(entry, r.id, "page-list entry not page-aligned")
				}
				if !rt.space.Mapped(entry) {
					return nil, rt.invariant(entry, r.id, "page-list entry unmapped")
				}
				link := rt.space.Load(entry + pageLink)
				count := int(link&(mem.PageSize-1)) + 1
				if rh != nil {
					if li == 0 {
						rh.NormalPages += count
					} else {
						rh.StringPages += count
					}
					rh.BookkeepingBytes += mem.WordSize // the entry's link word
				}
				for i := 0; i < count; i++ {
					pg := int(entry>>mem.PageShift) + i
					a := Ptr(pg) << mem.PageShift
					if !rt.space.Mapped(a) {
						return nil, rt.invariant(a, r.id, "page-list page unmapped")
					}
					if li == 1 && strPages != nil {
						strPages[pg] = true
					}
					if prev, dup := seen[pg]; dup {
						return nil, rt.invariant(a, r.id,
							"page also on region #%d's lists", prev)
					}
					seen[pg] = r.id
					if det := rt.pages.detachedAt(pg); det != nil {
						return nil, rt.invariant(a, r.id,
							"live page marked detached (from region #%d)", det.id)
					}
					if owner := rt.pages.ownerAt(pg); owner != r {
						ownerID := int32(-1)
						if owner != nil {
							ownerID = owner.id
						}
						return nil, rt.invariant(a, r.id,
							"page map attributes page to %d, page list to %d", ownerID, r.id)
					}
				}
				entry = link &^ Ptr(mem.PageSize-1)
			}
		}
		// 1.5: the string pool's free lists. Every parked block must sit on
		// one of r's own string pages, inside the allocated prefix of the
		// head page, in the class its capacity floors to, poisoned, and
		// non-overlapping; the recorded byte sum must match.
		if r.strPool != nil {
			if f := rt.checkStrPool(r, strPages, strHead, strAvail); f != nil {
				return nil, f
			}
		}
		if rh != nil {
			rh.Pages = rh.NormalPages + rh.StringPages
			rh.CapacityBytes = uint64(rh.Pages) * mem.PageSize
			rh.StrPoolBytes = r.strPoolBytes
			for _, list := range r.strPool {
				rh.StrPoolBlocks += len(list)
			}
			// The region structure and its coloring gap on the home page.
			color := r.hdr - (r.hdr &^ Ptr(mem.PageSize-1)) - mem.WordSize
			rh.BookkeepingBytes += uint64(color) + hdrBytes
		}
	}

	// 2. Page map, reverse direction.
	for pg, owner := range rt.pages.owners {
		if owner == nil {
			continue
		}
		a := Ptr(pg) << mem.PageShift
		if owner.deleted {
			return nil, rt.invariant(a, owner.id, "page map names deleted region")
		}
		if got, ok := seen[pg]; !ok || got != owner.id {
			return nil, rt.invariant(a, owner.id, "page not on its owner's page lists")
		}
	}

	// 3. Free lists. A detached page (deferred deletion, sweep pending) is
	// legitimately unpoisoned: it is counted here instead — flagged pages
	// must be unowned, attributed to a deleted region, still queued for the
	// sweeper, and sum to exactly the runtime's sweep debt and each source
	// region's unswept count.
	detachedSeen := 0
	detachedPer := map[*Region]int{}
	queued := map[int]bool{}
	for _, e := range rt.sweepq[rt.sweepHead:] {
		for i := 0; i < e.pages; i++ {
			queued[int(e.first>>mem.PageShift)+i] = true
		}
	}
	checkFree := func(p Ptr, n int) *Fault {
		for i := 0; i < n; i++ {
			pg := int(p>>mem.PageShift) + i
			a := Ptr(pg) << mem.PageShift
			if !rt.space.Mapped(a) {
				return rt.invariant(a, -1, "free page unmapped")
			}
			if owner := rt.pages.ownerAt(pg); owner != nil {
				return rt.invariant(a, owner.id, "free page has an owner")
			}
			if det := rt.pages.detachedAt(pg); det != nil {
				if !det.deleted {
					return rt.invariant(a, det.id, "detached page attributed to a live region")
				}
				if !queued[pg] {
					return rt.invariant(a, det.id, "detached page missing from the sweep queue")
				}
				detachedSeen++
				detachedPer[det]++
				continue // poison deferred until the sweep
			}
			for off := Ptr(0); off < mem.PageSize; off += mem.WordSize {
				if w := rt.space.Load(a + off); w != mem.PoisonWord {
					return rt.invariant(a+off, -1,
						"free page word is %#x, not poison (stray write after free?)", w)
				}
			}
		}
		return nil
	}
	for _, p := range rt.freePages {
		if f := checkFree(p, 1); f != nil {
			return nil, f
		}
	}
	if f := rt.spans.forEach(func(p Ptr, n int) *Fault {
		if rep != nil {
			rep.FreeSpanPages += n
		}
		return checkFree(p, n)
	}); f != nil {
		return nil, f
	}
	if detachedSeen != rt.t.SweepDebt {
		return nil, rt.invariant(0, -1,
			"sweep debt is %d pages but %d detached pages are on the free lists",
			rt.t.SweepDebt, detachedSeen)
	}
	for _, r := range rt.regions {
		if got := detachedPer[r]; r.unswept != got {
			return nil, rt.invariant(r.hdr, r.id,
				"region unswept count %d, %d of its detached pages on the free lists",
				r.unswept, got)
		}
	}
	if rep != nil {
		rep.DetachedPages = detachedSeen
	}

	// 4. Object headers (and, when collecting, the live-object census).
	if f := rt.censusObjects(byID, rep); f != nil {
		return nil, f
	}

	if rep != nil {
		rep.LiveRegions = len(rep.Regions)
		rep.Totals.ID = -1
		t := &rep.Totals
		for i := range rep.Regions {
			rh := &rep.Regions[i]
			if rh.LiveBytes > rh.NormalBytes {
				rh.StringBytes = rh.LiveBytes - rh.NormalBytes
			}
			if used := rh.LiveBytes + rh.BookkeepingBytes + rh.FreeBytes + rh.StrPoolBytes; rh.CapacityBytes > used {
				rh.FragBytes = rh.CapacityBytes - used
			}
			if rh.CapacityBytes > 0 {
				rh.OccupancyPct = 100 * float64(rh.LiveBytes) / float64(rh.CapacityBytes)
			}
			t.Pages += rh.Pages
			t.NormalPages += rh.NormalPages
			t.StringPages += rh.StringPages
			t.CapacityBytes += rh.CapacityBytes
			t.LiveBytes += rh.LiveBytes
			t.NormalBytes += rh.NormalBytes
			t.StringBytes += rh.StringBytes
			t.BookkeepingBytes += rh.BookkeepingBytes
			t.FreeBytes += rh.FreeBytes
			t.StrPoolBytes += rh.StrPoolBytes
			t.StrPoolBlocks += rh.StrPoolBlocks
			t.FragBytes += rh.FragBytes
			t.Objects += rh.Objects
			t.Allocs += rh.Allocs
		}
		if t.CapacityBytes > 0 {
			t.OccupancyPct = 100 * float64(t.LiveBytes) / float64(t.CapacityBytes)
		}
		rep.StrPool = strPoolReport(rt.StrPoolStats())
	}
	return rep, nil
}

// strPoolReport converts the runtime's pool counters to the report schema.
func strPoolReport(s StrPoolStats) *metrics.HeapStrPool {
	out := &metrics.HeapStrPool{
		Enabled:    s.Enabled,
		Ceiling:    s.Ceiling,
		New:        s.New,
		Reuse:      s.Reuse,
		Big:        s.Big,
		Freed:      s.Freed,
		ReuseRatio: s.ReuseRatio(),
	}
	for _, c := range s.Classes {
		if c.New == 0 && c.Reuse == 0 && c.Freed == 0 && c.FreeBlocks == 0 {
			continue // all-zero classes would dominate the table with noise
		}
		out.Classes = append(out.Classes, metrics.HeapStrClass{
			Size: c.Size, New: c.New, Reuse: c.Reuse, Freed: c.Freed,
			FreeBlocks: c.FreeBlocks, FreeBytes: c.FreeBytes,
		})
	}
	return out
}

// checkStrPool audits one region's string-pool free lists against the page
// census heapWalk just built: strPages is the set of pages on r's string
// list, strHead/strAvail the list's head page and its bump offset.
func (rt *Runtime) checkStrPool(r *Region, strPages map[int]bool, strHead, strAvail Ptr) *Fault {
	if !rt.strPooling {
		return rt.invariant(r.hdr, r.id, "string pool populated with pooling disabled")
	}
	var all []strBlock
	var bytes uint64
	for idx, list := range r.strPool {
		for _, b := range list {
			cap := int(b.cap)
			if b.p == 0 || b.p%mem.WordSize != 0 {
				return rt.invariant(b.p, r.id, "pooled string block misaligned")
			}
			if cap < strClassMin || cap > rt.strCeil || cap%mem.WordSize != 0 {
				return rt.invariant(b.p, r.id, "pooled string block capacity %d outside the pool", cap)
			}
			if strClassIdx(cap) != idx {
				return rt.invariant(b.p, r.id,
					"pooled string block capacity %d filed under class %d, not %d",
					cap, idx, strClassIdx(cap))
			}
			off := int(b.p % mem.PageSize)
			if off < mem.WordSize || off+cap > mem.PageSize {
				return rt.invariant(b.p, r.id,
					"pooled string block [%#x,+%d) crosses its page's bounds", b.p, cap)
			}
			pg := int(b.p >> mem.PageShift)
			if !strPages[pg] {
				return rt.invariant(b.p, r.id, "pooled string block not on the region's string pages")
			}
			if Ptr(pg)<<mem.PageShift == strHead && Ptr(off+cap) > strAvail {
				return rt.invariant(b.p, r.id,
					"pooled string block extends past the head page's bump offset")
			}
			for o := 0; o < cap; o += mem.WordSize {
				if w := rt.space.Load(b.p + Ptr(o)); w != mem.PoisonWord {
					return rt.invariant(b.p+Ptr(o), r.id,
						"pooled string block word is %#x, not poison (stray write after free?)", w)
				}
			}
			bytes += uint64(cap)
			all = append(all, b)
		}
	}
	if bytes != r.strPoolBytes {
		return rt.invariant(r.hdr, r.id,
			"string pool bytes %d, blocks sum to %d", r.strPoolBytes, bytes)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].p < all[j].p })
	for i := 1; i < len(all); i++ {
		if all[i-1].p+Ptr(all[i-1].cap) > all[i].p {
			return rt.invariant(all[i].p, r.id,
				"pooled string blocks overlap (double free?): [%#x,+%d) and [%#x,+%d)",
				all[i-1].p, all[i-1].cap, all[i].p, all[i].cap)
		}
	}
	return nil
}

// censusObjects re-walks every live region's normal-allocator entries the
// way runCleanups would, dry-running cleanup functions (Destroy disabled
// via rt.verifying) to measure object extents without mutating counts.
// When rep is non-nil it also fills each region's object census — object
// count, data bytes, header bookkeeping — and the report's by-site census,
// attributing objects to their cleanup's registered name.
func (rt *Runtime) censusObjects(byID map[int32]*metrics.RegionHeap, rep *metrics.HeapReport) *Fault {
	rt.verifying = true
	defer func() { rt.verifying = false }()

	var sites map[string]*metrics.HeapSite
	if rep != nil {
		sites = map[string]*metrics.HeapSite{}
	}
	for _, r := range rt.regions {
		if r.deleted {
			continue
		}
		rh := byID[r.id]
		homePage := r.hdr &^ Ptr(mem.PageSize-1)
		entry := rt.space.Load(r.hdr + offNormalFirst)
		for entry != 0 {
			link := rt.space.Load(entry + pageLink)
			count := int(link&(mem.PageSize-1)) + 1
			end := entry + Ptr(count*mem.PageSize)
			p := entry + mem.WordSize
			if entry == homePage {
				p = r.hdr + hdrBytes
			}
			for p < end {
				hdr := rt.space.Load(p)
				if hdr == 0 {
					break // end of the entry's filled prefix
				}
				id := CleanupID(hdr &^ arrayFlag)
				if id <= 0 || int(id) > len(rt.cleanups) {
					return rt.invariant(p, r.id, "corrupt object header %#x", hdr)
				}
				var extent, data, book uint64
				if hdr&arrayFlag != 0 {
					n := uint64(rt.space.Load(p + 4))
					esz := uint64(rt.space.Load(p + 8))
					data = n * esz
					book = 3 * mem.WordSize
					extent = book + data
				} else {
					size := rt.cleanups[id-1].fn(rt, p+mem.WordSize)
					if size < 0 {
						return rt.invariant(p, r.id,
							"cleanup %q reported negative size %d", rt.cleanups[id-1].name, size)
					}
					data = uint64(align4(size))
					book = mem.WordSize
					extent = book + data
				}
				if uint64(p)+extent > uint64(end) {
					return rt.invariant(p, r.id,
						"object extent %d runs past its page entry", extent)
				}
				if rh != nil {
					rh.Objects++
					rh.NormalBytes += data
					rh.BookkeepingBytes += book
					name := rt.cleanups[id-1].name
					s, ok := sites[name]
					if !ok {
						s = &metrics.HeapSite{Site: name}
						sites[name] = s
					}
					s.Objects++
					s.Bytes += data
				}
				p += Ptr(extent)
			}
			entry = link &^ Ptr(mem.PageSize-1)
		}
	}
	if rep != nil {
		for _, s := range sites {
			rep.Sites = append(rep.Sites, *s)
		}
		sort.Slice(rep.Sites, func(i, j int) bool {
			if rep.Sites[i].Bytes != rep.Sites[j].Bytes {
				return rep.Sites[i].Bytes > rep.Sites[j].Bytes
			}
			return rep.Sites[i].Site < rep.Sites[j].Site
		})
	}
	return nil
}

// forEachNormalWord visits every nonzero word in reg's normal-allocator
// page entries, skipping the link words and the region structure — the
// scanned-data iteration shared by the reference-count verifier and
// Referrers, which used to carry independent copies of it.
func (rt *Runtime) forEachNormalWord(reg *Region, visit func(addr Ptr, v Word)) {
	homePage := reg.hdr &^ Ptr(mem.PageSize-1)
	entry := rt.space.Load(reg.hdr + offNormalFirst)
	for entry != 0 {
		link := rt.space.Load(entry + pageLink)
		count := int(link&(mem.PageSize-1)) + 1
		end := entry + Ptr(count*mem.PageSize)
		a := entry + mem.WordSize
		if entry == homePage {
			a = reg.hdr + hdrBytes
		}
		for ; a < end; a += mem.WordSize {
			if v := rt.space.Load(a); v != 0 {
				visit(a, v)
			}
		}
		entry = link &^ Ptr(mem.PageSize-1)
	}
}
