package core

import "fmt"

// This file is the "environment for debugging regions" the paper wishes
// for in Section 5.1: "The other difficulty is finding stale pointers that
// prevent a region from being deleted; an environment for debugging regions
// would be helpful here." Referrers answers the question a failing
// DeleteRegion raises — who still points into this region?

// RefKind classifies where a reference into a region was found.
type RefKind string

// Reference locations.
const (
	RefHeap   RefKind = "heap"   // a word inside another region's scanned data
	RefGlobal RefKind = "global" // a word in global storage
	RefFrame  RefKind = "frame"  // a live local variable slot
)

// Ref is one location that holds (or conservatively appears to hold) a
// pointer into the region under investigation.
type Ref struct {
	Kind  RefKind
	Addr  Ptr     // heap address of the referring word (heap/global refs)
	From  *Region // region containing the referring word (heap refs)
	Frame int     // frame depth, outermost = 0 (frame refs)
	Slot  int     // slot within the frame (frame refs)
	Value Ptr     // the pointer found
}

// String formats a reference for diagnostics.
func (r Ref) String() string {
	switch r.Kind {
	case RefHeap:
		return fmt.Sprintf("heap word %#x in %v -> %#x", r.Addr, r.From, r.Value)
	case RefGlobal:
		return fmt.Sprintf("global word %#x -> %#x", r.Addr, r.Value)
	default:
		return fmt.Sprintf("frame %d slot %d -> %#x", r.Frame, r.Slot, r.Value)
	}
}

// Referrers conservatively locates every tracked reference into target: the
// scanned (normal-allocator) data of all other live regions, global
// storage, and every shadow-stack frame slot. It is a debugging aid — it
// charges no cycles and may over-report words whose integer value happens
// to alias an address in target. String-allocator data is not scanned,
// matching its "no region pointers" contract; a pointer hidden there is
// exactly the kind of unsafe cast the paper's C@ rules out.
func (rt *Runtime) Referrers(target *Region) []Ref {
	if target == nil || target.st.deleted {
		return nil
	}
	var refs []Ref
	rt.space.Uncharged(func() {
		pointsIn := func(v Ptr) bool { return v != 0 && rt.pages.lookup(v) == target }

		for _, reg := range rt.regions {
			if reg.st.deleted || reg == target {
				continue
			}
			from := reg
			rt.forEachDataWord(from, func(a Ptr, v Word) {
				if pointsIn(v) {
					refs = append(refs, Ref{Kind: RefHeap, Addr: a, From: from, Value: v})
				}
			})
		}
		rt.forEachGlobalWord(func(a Ptr, v Word) {
			if pointsIn(v) {
				refs = append(refs, Ref{Kind: RefGlobal, Addr: a, Value: v})
			}
		})
		for fi, f := range rt.stack.frames {
			for si, v := range f.slots {
				if pointsIn(v) {
					refs = append(refs, Ref{Kind: RefFrame, Frame: fi, Slot: si, Value: v})
				}
			}
		}
	})
	return refs
}
