package core

import (
	"fmt"

	"regions/internal/mem"
)

// This file is the runtime's one decoder of a region's in-heap layout, the
// self-describing page lists of Section 4.1. A region keeps one list of
// page-list entries per allocator. An entry is one or more contiguous pages
// whose first word is the link: the next entry's (page-aligned) address ORed
// with this entry's page count minus one. The normal allocator's entries
// hold objects back to back — a header word (cleanup id, plus arrayFlag for
// rarrayalloc), an array's element count and size, then the data — and a
// zero header ends an entry's filled prefix. On the home page the objects
// start past the region structure.
//
// Deletion and its cleanup pass, the verifier and heap profiler, Referrers,
// migration and the content digest all walk through walkList and
// walkObjects, so a malformed layout stops every one of them with the same
// *Fault instead of a stray access. The walkers' own loads are the ones
// Figure 7's loop makes — one link word per entry, and per object its
// header and an array's count and element size — so a charged caller
// (deletion and its cleanup pass) pays for nothing else.

// walkList visits the entries of the page list headed at entry, head first,
// with each entry's first page and page count. The link is read before visit
// runs, so visit may release the entry. A cyclic, misaligned or unmapped
// list stops the walk with a *Fault of the given kind on region r; an error
// from visit stops it too and is returned as is.
func (rt *Runtime) walkList(kind FaultKind, r *Region, entry Ptr, visit func(first Ptr, pages int) error) error {
	for steps := 0; entry != 0; steps++ {
		if steps >= rt.space.NumPages() {
			return rt.fault(kind, entry, r.id, "page list cycle", nil)
		}
		if entry&(mem.PageSize-1) != 0 {
			return rt.fault(kind, entry, r.id, "page-list entry not page-aligned", nil)
		}
		if !rt.space.Mapped(entry) {
			return rt.fault(kind, entry, r.id, "page-list entry unmapped", nil)
		}
		link := rt.space.Load(entry + pageLink)
		pages := int(link&(mem.PageSize-1)) + 1
		for i := 1; i < pages; i++ {
			if a := entry + Ptr(i)<<mem.PageShift; !rt.space.Mapped(a) {
				return rt.fault(kind, a, r.id, "page-list page unmapped", nil)
			}
		}
		if err := visit(entry, pages); err != nil {
			return err
		}
		entry = link &^ Ptr(mem.PageSize-1)
	}
	return nil
}

// walkNormal visits the data range [from, end) of each entry on r's
// normal-allocator list: everything past the link word, or past the region
// structure on the home page.
func (rt *Runtime) walkNormal(kind FaultKind, r *Region, visit func(from, end Ptr) error) error {
	home := r.hdr &^ Ptr(mem.PageSize-1)
	return rt.walkList(kind, r, rt.space.Load(r.hdr+offNormalFirst), func(first Ptr, pages int) error {
		from := first + mem.WordSize
		if first == home {
			from = r.hdr + hdrBytes
		}
		return visit(from, first+Ptr(pages*mem.PageSize))
	})
}

// object is one normal-allocator object as walkObjects decodes it.
type object struct {
	at     Ptr       // the header word's address
	id     CleanupID // the header's cleanup id, as resolved
	n, esz int       // an array's element count and size; n is -1 for a single object
	data   Ptr       // the data extent is [data, end)
	end    Ptr
}

// walkObjects visits r's normal-allocator objects in Figure 7's order: entry
// by entry down the list, each entry's filled prefix up to a zero header.
// resolve, when non-nil, maps each header's cleanup id before it is checked
// — the cleanup pass counts and charges each call there, import remaps ids
// there. A single object is sized by calling its cleanup once, as Figure 7
// does, so callers that must not destroy set rt.verifying; a size cleanup's
// size is read, not called. An unknown id, a negative size or an object
// running past its entry stops the walk with a *Fault of the given kind, as
// a malformed list does (see walkList).
func (rt *Runtime) walkObjects(kind FaultKind, r *Region, resolve func(CleanupID) CleanupID, visit func(o object) error) error {
	return rt.walkNormal(kind, r, func(p, end Ptr) error {
		for p < end {
			hdr := rt.space.Load(p)
			if hdr == 0 {
				return nil // end of the entry's filled prefix
			}
			o := object{at: p, id: CleanupID(hdr &^ arrayFlag), n: -1}
			if resolve != nil {
				o.id = resolve(o.id)
			}
			if o.id <= 0 || int(o.id) > len(rt.cleanups) {
				return rt.fault(kind, p, r.id, fmt.Sprintf("corrupt object header %#x", hdr), nil)
			}
			var size uint64 // in 64 bits, so a corrupt count cannot wrap past the check
			if hdr&arrayFlag != 0 {
				n, esz := rt.space.Load(p+4), rt.space.Load(p+8)
				o.n, o.esz = int(n), int(esz)
				o.data = p + 3*mem.WordSize
				size = uint64(n) * uint64(esz)
			} else {
				o.data = p + mem.WordSize
				e := &rt.cleanups[o.id-1]
				s := e.size
				if e.fn != nil {
					s = e.fn(rt, o.data)
				}
				if s < 0 {
					return rt.fault(kind, p, r.id,
						fmt.Sprintf("cleanup %q reported negative size %d", e.name, s), nil)
				}
				size = uint64(align4(s))
			}
			if uint64(o.data)+size > uint64(end) {
				return rt.fault(kind, p, r.id,
					fmt.Sprintf("object extent %d runs past its page entry", uint64(o.data-p)+size), nil)
			}
			o.end = o.data + Ptr(size)
			if err := visit(o); err != nil {
				return err
			}
			p = o.end
		}
		return nil
	})
}

// mustWalk panics with a walk's *Fault, for callers that have no error
// path: a malformed layout under them is a runtime invariant violation.
func mustWalk(err error) {
	if err != nil {
		panic(err)
	}
}
