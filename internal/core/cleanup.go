package core

import (
	"fmt"

	"regions/internal/stats"
	"regions/internal/trace"
)

// CleanupID identifies a registered cleanup function. The zero value is not
// a valid id; every ralloc'd object carries one, as in the paper, where the
// cleanup pointer doubles as the object header and a NULL header marks the
// end of a page's filled prefix (Figure 7).
type CleanupID int32

// CleanupFunc is the paper's cleanup_t: given the address of an object's
// data, it must call rt.Destroy on every region pointer stored in the object
// and return the object's data size in bytes. For array allocations the same
// function is applied per element (the count and element size are stored in
// the array header) and its return value is ignored.
//
// The user supplies cleanups for the same reason the paper requires them: in
// C, unions make it impossible for the compiler to locate region pointers.
// Cleanups also provide object finalization.
type CleanupFunc func(rt *Runtime, obj Ptr) int

type cleanupEntry struct {
	name string
	fn   CleanupFunc // nil for a size cleanup (see RegisterSizeCleanup)
	size int         // a size cleanup's object size
}

// cleanupTableCap is the room the cleanup table takes at its first
// registration, so that it is allocated once: more than any runtime in this
// repository registers (a serving shard registers 24).
const cleanupTableCap = 32

// RegisterCleanup registers fn under a diagnostic name and returns its id.
// The name is also the allocation site a metered runtime counts the
// cleanup's objects under, so once the runtime has a site table (see
// Meter) the cleanup gets its site there.
func (rt *Runtime) RegisterCleanup(name string, fn CleanupFunc) CleanupID {
	if fn == nil {
		panic("core: nil cleanup function")
	}
	return rt.register(cleanupEntry{name: name, fn: fn})
}

// RegisterSizeCleanup registers, under a diagnostic name, the cleanup of
// pointer-free objects of exactly size bytes: a cleanup that destroys
// nothing and returns size. The runtime sizes such objects without a call,
// and deleting a region calls nothing for them, though it counts and
// charges each object as it does any other.
func (rt *Runtime) RegisterSizeCleanup(name string, size int) CleanupID {
	return rt.register(cleanupEntry{name: name, size: size})
}

// register appends e to the cleanup table and returns its id.
func (rt *Runtime) register(e cleanupEntry) CleanupID {
	if rt.cleanups == nil {
		rt.cleanups = make([]cleanupEntry, 0, cleanupTableCap)
	}
	rt.cleanups = append(rt.cleanups, e)
	if st := rt.sites; st != nil {
		st.add(e.name)
	}
	return CleanupID(len(rt.cleanups))
}

// SizeCleanup returns a size cleanup (see RegisterSizeCleanup) for objects
// of exactly size bytes, named "size<N>". Results are cached per size. Such
// objects could use RstrAlloc instead; SizeCleanup exists for data that
// must live among scanned objects or wants ralloc's clearing.
func (rt *Runtime) SizeCleanup(size int) CleanupID {
	if rt.sizeCleanups == nil {
		rt.sizeCleanups = make(map[int]CleanupID)
	}
	if id, ok := rt.sizeCleanups[size]; ok {
		return id
	}
	id := rt.RegisterSizeCleanup(fmt.Sprintf("size%d", size), size)
	rt.sizeCleanups[size] = id
	return id
}

// registered reports whether cln names a cleanup of this runtime.
func (rt *Runtime) registered(cln CleanupID) bool {
	return cln > 0 && int(cln) <= len(rt.cleanups)
}

// encodeCleanup builds the object header word: id (1-based, so headers are
// never zero) plus an array flag bit. cln must be registered: the
// allocators test it first, and materialize's ids come from walkObjects,
// which faults on an id outside the table before visiting. Without a check
// of its own it inlines into every allocation.
func (rt *Runtime) encodeCleanup(cln CleanupID, array bool) Word {
	w := Word(cln)
	if array {
		w |= arrayFlag
	}
	return w
}

// Destroy is called by cleanup functions on every region pointer in a dying
// object (the paper's destroy). It decrements the target region's reference
// count unless the pointer is nil, points outside any region, or points back
// into the region being deleted (sameregion pointers were never counted).
func (rt *Runtime) Destroy(p Ptr) {
	if !rt.safe || rt.verifying {
		return
	}
	rt.c.DestroyCalls++
	rt.charge(stats.ModeCleanup, 2)
	if p == 0 {
		return
	}
	reg := rt.RegionOf(p)
	if reg == nil || reg == rt.deleting {
		return
	}
	if reg.st.deleted {
		panic(rt.fault(FaultDanglingDestroy, p, reg.id,
			"Destroy found a pointer into a deleted region", nil))
	}
	rt.rcDec(reg)
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindDestroy, Addr: p,
			Region: reg.id, Aux: -1})
	}
}

// runCleanups invokes the cleanup of every object in r's normal-allocator
// entries, following Figure 7 of the paper: each call is counted and charged
// before it runs, and an array's cleanup runs once per element.
func (rt *Runtime) runCleanups(r *Region) {
	old := rt.space.SetMode(stats.ModeCleanup)
	defer rt.space.SetMode(old)
	rt.deleting = r
	defer func() { rt.deleting = nil }()

	count := func(id CleanupID) CleanupID {
		rt.c.CleanupCalls++
		rt.charge(stats.ModeCleanup, 3)
		return id
	}
	mustWalk(rt.walkObjects(FaultCorruptHeader, r, count, func(o object) error {
		if fn := rt.cleanups[o.id-1].fn; fn != nil {
			for i := 0; i < o.n; i++ {
				fn(rt, o.data+Ptr(i*o.esz))
			}
		}
		if rt.tracer != nil {
			rt.tracer.Emit(trace.Event{Kind: trace.KindCleanup, Region: r.id, Addr: o.data,
				Size: int32(o.end - o.data), Aux: int32(o.n), Site: rt.cleanups[o.id-1].name})
		}
		return nil
	}))
}
