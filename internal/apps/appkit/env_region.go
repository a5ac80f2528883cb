package appkit

import (
	"regions/internal/core"
	"regions/internal/xmalloc"
)

// --- real region runtime (safe and unsafe) ---------------------------------

type coreEnv struct {
	baseEnv
	rt *core.Runtime
}

type coreFrame struct{ f *core.Frame }

func (f coreFrame) Set(i int, p Ptr) { f.f.Set(i, p) }
func (f coreFrame) Get(i int) Ptr    { return f.f.Get(i) }

func (e *coreEnv) PushFrame(n int) Frame { return coreFrame{e.rt.PushFrame(n)} }
func (e *coreEnv) PopFrame()             { e.rt.PopFrame() }
func (e *coreEnv) Safe() bool            { return e.rt.Safe() }

func (e *coreEnv) NewRegion() Region { return e.rt.NewRegion() }

func (e *coreEnv) DeleteRegion(r Region) bool {
	return e.rt.DeleteRegion(r.(*core.Region))
}

func (e *coreEnv) Ralloc(r Region, size int, cln CleanupID) Ptr {
	return e.rt.Ralloc(r.(*core.Region), size, cln)
}

func (e *coreEnv) RarrayAlloc(r Region, n, elemSize int, cln CleanupID) Ptr {
	return e.rt.RarrayAlloc(r.(*core.Region), n, elemSize, cln)
}

func (e *coreEnv) RstrAlloc(r Region, size int) Ptr {
	return e.rt.RstrAlloc(r.(*core.Region), size)
}

func (e *coreEnv) RstrFree(r Region, p Ptr, size int) {
	e.rt.RstrFree(r.(*core.Region), p, size)
}

func (e *coreEnv) RegisterCleanup(name string, fn CleanupFunc) CleanupID {
	return e.rt.RegisterCleanup(name, func(_ *core.Runtime, obj Ptr) int {
		return fn(e, obj)
	})
}

func (e *coreEnv) SizeCleanup(size int) CleanupID { return e.rt.SizeCleanup(size) }
func (e *coreEnv) Destroy(p Ptr)                  { e.rt.Destroy(p) }
func (e *coreEnv) StorePtr(slot, val Ptr)         { e.rt.StorePtr(slot, val) }
func (e *coreEnv) StoreGlobalPtr(slot, val Ptr)   { e.rt.StoreGlobalPtr(slot, val) }
func (e *coreEnv) AllocGlobals(nwords int) Ptr    { return e.rt.AllocGlobals(nwords) }

func (e *coreEnv) Finalize() { e.rt.FinalizeStats() }

// --- emulation region library over a malloc environment --------------------

type emuEnv struct {
	baseEnv
	m       MallocEnv
	lib     *xmalloc.EmuRegions
	regions []*xmalloc.EmuRegion
	nextCln CleanupID
}

func (e *emuEnv) PushFrame(n int) Frame { return e.m.PushFrame(n) }
func (e *emuEnv) PopFrame()             { e.m.PopFrame() }
func (e *emuEnv) Safepoint()            { e.m.Safepoint() }
func (e *emuEnv) Safe() bool            { return false }

func (e *emuEnv) NewRegion() Region {
	r := e.lib.NewRegion()
	e.regions = append(e.regions, r)
	return r
}

func (e *emuEnv) DeleteRegion(r Region) bool {
	e.lib.Delete(r.(*xmalloc.EmuRegion))
	return true
}

func (e *emuEnv) Ralloc(r Region, size int, _ CleanupID) Ptr {
	p := e.lib.Alloc(r.(*xmalloc.EmuRegion), size)
	e.sp.ZeroRange(p, (size+3)&^3) // match ralloc's clearing guarantee
	return p
}

func (e *emuEnv) RarrayAlloc(r Region, n, elemSize int, _ CleanupID) Ptr {
	size := n * ((elemSize + 3) &^ 3)
	p := e.lib.Alloc(r.(*xmalloc.EmuRegion), size)
	e.sp.ZeroRange(p, size)
	return p
}

func (e *emuEnv) RstrAlloc(r Region, size int) Ptr {
	return e.lib.Alloc(r.(*xmalloc.EmuRegion), size)
}

// RstrFree is a no-op: the emulation library frees objects only at region
// deletion, matching the paper's malloc-backed region emulation.
func (e *emuEnv) RstrFree(Region, Ptr, int) {}

// Cleanups are never run by the emulation library (deletion frees objects
// without scanning, and there is no reference counting); ids are issued so
// the same application code links against both libraries.
func (e *emuEnv) RegisterCleanup(string, CleanupFunc) CleanupID {
	e.nextCln++
	return e.nextCln
}

func (e *emuEnv) SizeCleanup(int) CleanupID {
	e.nextCln++
	return e.nextCln
}

func (e *emuEnv) Destroy(Ptr) {}

func (e *emuEnv) StorePtr(slot, val Ptr)       { e.sp.Store(slot, val) }
func (e *emuEnv) StoreGlobalPtr(slot, val Ptr) { e.sp.Store(slot, val) }
func (e *emuEnv) AllocGlobals(nwords int) Ptr  { return e.allocGlobalWords(nwords) }

func (e *emuEnv) Finalize() {
	c := e.Counters()
	for _, r := range e.regions {
		if !r.Deleted() && r.Bytes() > c.MaxRegionBytes {
			c.MaxRegionBytes = r.Bytes()
		}
	}
}

// LinkOverheadBytes sums the emulation library's per-object link words over
// all regions ever created, for the paper's "(w/o overhead)" figures.
func (e *emuEnv) LinkOverheadBytes() uint64 {
	var n uint64
	for _, r := range e.regions {
		n += r.LinkOverheadBytes()
	}
	return n
}

// EmulationOverhead reports the emulation library's link-word overhead for
// an env, or 0 for environments without one.
func EmulationOverhead(e Env) uint64 {
	if emu, ok := e.(*emuEnv); ok {
		return emu.LinkOverheadBytes()
	}
	return 0
}
