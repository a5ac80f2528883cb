package core

import (
	"sort"

	"regions/internal/mem"
	"regions/internal/metrics"
)

// This file is the runtime's heap audit. heapWalk checks the structural
// invariants — page census, page↔region map agreement, free-list poison,
// object-header parse — and, when asked, builds the machine-readable
// per-region report (metrics.HeapReport) behind cmd/regionstat and
// regionbench's /heap endpoint. One audit, two consumers: the profiler sees
// exactly the heap the verifier certifies, and a structurally broken heap
// yields a fault, not a bogus profile. The page lists and objects it audits
// are decoded by walk.go, the decoder every other region walk shares.

// HeapReport captures a per-region heap profile: page census, live bytes,
// occupancy, internal fragmentation, the string-vs-scanned split, and a
// live-object census by allocation site. The walk is uncharged and
// read-only, and it performs the same structural checks as Verify steps
// 1-5, so the report comes certified: a corrupt heap returns an error
// (*Fault of kind FaultInvariant) instead. Stack and reference-count
// invariants (Verify steps 6-7) are not checked here.
func (rt *Runtime) HeapReport() (*metrics.HeapReport, error) {
	var rep *metrics.HeapReport
	var err error
	rt.space.Uncharged(func() { rep, err = rt.heapWalk(true) })
	return rep, err
}

// heapWalk audits the heap's structural invariants (Verify steps 1-5) and,
// when collect is set, accumulates the per-region heap report along the
// way. With collect false it allocates nothing beyond the census map and
// behaves exactly as the verifier always has. A violation is a *Fault of
// kind FaultInvariant.
func (rt *Runtime) heapWalk(collect bool) (*metrics.HeapReport, error) {
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
		st := r.st
		if st.deleted {
			continue
		}
		if !rt.space.Mapped(r.hdr) {
			return nil, rt.invariant(r.hdr, r.id, "region header unmapped")
		}
		var rh *metrics.RegionHeap
		if collect {
			rep.Regions = append(rep.Regions, metrics.RegionHeap{
				ID: r.id, LiveBytes: uint64(st.bytes), Allocs: st.allocs,
			})
			rh = &rep.Regions[len(rep.Regions)-1]
			byID[r.id] = rh
		}
		var strPages map[int]bool // string-list page census for the pool audit
		var strHead, strAvail, strTop Ptr
		pages := 0 // on both lists
		if st.pool != nil {
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
			if err := rt.walkList(FaultInvariant, r, entry, func(first Ptr, count int) error {
				if li == 1 && first == entry && count == 1 {
					strTop = first + avail // a one-page head's bump frontier
				}
				pages += count
				if rh != nil {
					if li == 0 {
						rh.NormalPages += count
					} else {
						rh.StringPages += count
					}
					rh.BookkeepingBytes += mem.WordSize // the entry's link word
				}
				for i := 0; i < count; i++ {
					pg := int(first>>mem.PageShift) + i
					a := Ptr(pg) << mem.PageShift
					if li == 1 && strPages != nil {
						strPages[pg] = true
					}
					if prev, dup := seen[pg]; dup {
						return rt.invariant(a, r.id,
							"page also on region #%d's lists", prev)
					}
					seen[pg] = r.id
					if det := rt.pages.detachedAt(pg); det != nil {
						return rt.invariant(a, r.id,
							"live page marked detached (from region #%d)", det.id)
					}
					if owner := rt.pages.ownerAt(pg); owner != r {
						ownerID := int32(-1)
						if owner != nil {
							ownerID = owner.id
						}
						return rt.invariant(a, r.id,
							"page map attributes page to %d, page list to %d", ownerID, r.id)
					}
					var mark uint8 // the string mark the page's list and place imply
					if li == 1 {
						mark = strMore
						if i == 0 {
							mark = strEntry
						}
					}
					if got := rt.pages.strAt(pg); got != mark {
						return rt.invariant(a, r.id, "page index string mark %d, page list implies %d", got, mark)
					}
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		if st.strTop != strTop {
			return nil, rt.invariant(r.hdr, r.id,
				"string bump frontier mirrored as %#x, header says %#x", st.strTop, strTop)
		}
		if uint64(st.bytes) > uint64(pages)*mem.PageSize {
			return nil, rt.invariant(r.hdr, r.id, "%d live bytes do not fit in the region's %d pages", st.bytes, pages)
		}
		// 1.5: the string pool's free lists. Every parked block must sit on
		// one of r's own string pages, inside the allocated prefix of the
		// head page, in the class its capacity floors to, poisoned, and
		// non-overlapping; the recorded byte sum must match.
		if st.pool != nil {
			if f := rt.checkStrPool(r, strPages, strHead, strAvail); f != nil {
				return nil, f
			}
		}
		if rh != nil {
			rh.Pages = rh.NormalPages + rh.StringPages
			rh.CapacityBytes = uint64(rh.Pages) * mem.PageSize
			if sp := st.pool; sp != nil {
				rh.StrPoolBytes = sp.bytes
				for _, list := range sp.classes {
					rh.StrPoolBlocks += len(list)
				}
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
		if owner.st.deleted {
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
	// region's unswept count. A free page nobody wrote since its release is
	// mem's shared poison page, so that page is audited first: a write into
	// it, or into the shared zero page, would change every such page at once.
	if err := mem.CheckSharedPages(); err != nil {
		return nil, rt.invariant(0, -1, "%v", err)
	}
	detachedSeen := 0
	detachedPer := map[*Region]int32{}
	var detachedOwners []*Region // in free-list order of first sight
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
				if !det.st.deleted {
					return rt.invariant(a, det.id, "detached page attributed to a live region")
				}
				if !queued[pg] {
					return rt.invariant(a, det.id, "detached page missing from the sweep queue")
				}
				detachedSeen++
				if detachedPer[det] == 0 {
					detachedOwners = append(detachedOwners, det)
				}
				detachedPer[det]++
				continue // poison deferred until the sweep
			}
			if bad := rt.space.FirstNonPoison(a, mem.PageSize); bad != 0 {
				return rt.invariant(bad, -1,
					"free page word is %#x, not poison (stray write after free?)", rt.space.Load(bad))
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
	// The region list holds every region whose count says it owns detached
	// pages; the regions that do own some are checked too, so a count
	// corrupted to zero cannot hide behind the list's compaction.
	for _, rs := range [2][]*Region{rt.regions, detachedOwners} {
		for _, r := range rs {
			if got := detachedPer[r]; r.st.unswept != got {
				return nil, rt.invariant(r.hdr, r.id,
					"region unswept count %d, %d of its detached pages on the free lists",
					r.st.unswept, got)
			}
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
	if rt.opts.NoStrPool {
		return rt.invariant(r.hdr, r.id, "string pool populated with pooling disabled")
	}
	sp := r.st.pool
	var all []strBlock
	var bytes uint64
	for idx, list := range sp.classes {
		if (len(list) > 0) != (sp.mask&(1<<idx) != 0) {
			return rt.invariant(r.hdr, r.id, "string pool class %d holds %d blocks, mask %#x", idx, len(list), sp.mask)
		}
		for _, b := range list {
			cap := int(b.cap)
			if b.p == 0 || b.p%mem.WordSize != 0 {
				return rt.invariant(b.p, r.id, "pooled string block misaligned")
			}
			if cap < strClassMin || cap > defaultStrPoolMax || cap%mem.WordSize != 0 {
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
			if bad := rt.space.FirstNonPoison(b.p, cap); bad != 0 {
				return rt.invariant(bad, r.id,
					"pooled string block word is %#x, not poison (stray write after free?)", rt.space.Load(bad))
			}
			bytes += uint64(cap)
			all = append(all, b)
		}
	}
	if bytes != sp.bytes {
		return rt.invariant(r.hdr, r.id,
			"string pool bytes %d, blocks sum to %d", sp.bytes, bytes)
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

// censusObjects walks every live region's objects the way runCleanups
// would, dry-running cleanup functions (Destroy disabled via rt.verifying)
// to measure object extents without mutating counts. When rep is non-nil it
// also fills each region's object census — object count, data bytes, header
// bookkeeping — and the report's by-site census, attributing objects to
// their cleanup's registered name.
func (rt *Runtime) censusObjects(byID map[int32]*metrics.RegionHeap, rep *metrics.HeapReport) error {
	rt.verifying = true
	defer func() { rt.verifying = false }()

	var sites map[string]*metrics.HeapSite
	if rep != nil {
		sites = map[string]*metrics.HeapSite{}
	}
	for _, r := range rt.regions {
		if r.st.deleted {
			continue
		}
		rh := byID[r.id]
		if err := rt.walkObjects(FaultInvariant, r, nil, func(o object) error {
			if rh == nil {
				return nil
			}
			data := uint64(o.end - o.data)
			rh.Objects++
			rh.NormalBytes += data
			rh.BookkeepingBytes += uint64(o.data - o.at)
			name := rt.cleanups[o.id-1].name
			s, ok := sites[name]
			if !ok {
				s = &metrics.HeapSite{Site: name}
				sites[name] = s
			}
			s.Objects++
			s.Bytes += data
			return nil
		}); err != nil {
			return err
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

// forEachDataWord visits every nonzero word of r's objects' data: the
// scanned data the write barriers count pointers in, without the object
// headers and an array's count and element-size words, whose integers can
// equal any region's addresses. Cleanup size functions are dry-run
// (Destroy disabled) to find non-array extents, as in Verify. It is the
// iteration shared by the reference-count verifier, Referrers and the
// import scan; the export scan and the import rewrite visit the same words.
func (rt *Runtime) forEachDataWord(r *Region, visit func(addr Ptr, v Word)) {
	defer func(was bool) { rt.verifying = was }(rt.verifying)
	rt.verifying = true
	mustWalk(rt.walkObjects(FaultCorruptHeader, r, nil, func(o object) error {
		for a := o.data; a < o.end; a += mem.WordSize {
			if v := rt.space.Load(a); v != 0 {
				visit(a, v)
			}
		}
		return nil
	}))
}

// forEachNormalWord visits every nonzero word in r's normal-allocator page
// entries, object headers included, skipping the link words and the region
// structure: the content digest's iteration.
func (rt *Runtime) forEachNormalWord(r *Region, visit func(addr Ptr, v Word)) {
	mustWalk(rt.walkNormal(FaultCorruptHeader, r, func(a, end Ptr) error {
		for ; a < end; a += mem.WordSize {
			if v := rt.space.Load(a); v != 0 {
				visit(a, v)
			}
		}
		return nil
	}))
}
