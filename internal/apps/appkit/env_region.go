package appkit

import (
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/stats"
	"regions/internal/xmalloc"
)

// --- real region runtime (safe and unsafe) ---------------------------------

// CoreEnv is the region environment over a real region runtime: the
// RegionEnv contract mapped method for method onto a *core.Runtime.
// NewRegionEnv and NewCustomRegionEnv wrap a runtime over a fresh space of
// their own; the shard engine wraps each shard's runtime. Globals come from
// the runtime's own segment allocator, so a long-lived environment never
// exhausts a fixed reservation.
type CoreEnv struct {
	name string
	sp   *mem.Space
	rt   *core.Runtime
}

// NewCoreEnv wraps rt, and the space it runs on, as the environment name.
func NewCoreEnv(name string, rt *core.Runtime) *CoreEnv {
	return &CoreEnv{name: name, sp: rt.Space(), rt: rt}
}

// Runtime returns the region runtime behind the environment.
func (e *CoreEnv) Runtime() *core.Runtime { return e.rt }

func (e *CoreEnv) Name() string              { return e.name }
func (e *CoreEnv) Space() *mem.Space         { return e.sp }
func (e *CoreEnv) Counters() *stats.Counters { return e.sp.Counters() }
func (e *CoreEnv) PushFrame(n int) Frame     { return e.rt.PushFrame(n) }
func (e *CoreEnv) PopFrame()                 { e.rt.PopFrame() }
func (e *CoreEnv) Safepoint()                {}
func (e *CoreEnv) Finalize()                 { e.rt.FinalizeStats() }
func (e *CoreEnv) Safe() bool                { return e.rt.Safe() }

func (e *CoreEnv) NewRegion() Region { return e.rt.NewRegion() }

func (e *CoreEnv) DeleteRegion(r Region) bool {
	return e.rt.DeleteRegion(r.(*core.Region))
}

func (e *CoreEnv) Ralloc(r Region, size int, cln CleanupID) Ptr {
	return e.rt.Ralloc(r.(*core.Region), size, cln)
}

func (e *CoreEnv) RarrayAlloc(r Region, n, elemSize int, cln CleanupID) Ptr {
	return e.rt.RarrayAlloc(r.(*core.Region), n, elemSize, cln)
}

func (e *CoreEnv) RstrAlloc(r Region, size int) Ptr {
	return e.rt.RstrAlloc(r.(*core.Region), size)
}

func (e *CoreEnv) RstrFree(r Region, p Ptr, size int) {
	e.rt.RstrFree(r.(*core.Region), p, size)
}

func (e *CoreEnv) RegisterCleanup(name string, fn CleanupFunc) CleanupID {
	return e.rt.RegisterCleanup(name, func(_ *core.Runtime, obj Ptr) int {
		return fn(e, obj)
	})
}

func (e *CoreEnv) SizeCleanup(size int) CleanupID { return e.rt.SizeCleanup(size) }
func (e *CoreEnv) Destroy(p Ptr)                  { e.rt.Destroy(p) }
func (e *CoreEnv) StorePtr(slot, val Ptr)         { e.rt.StorePtr(slot, val) }
func (e *CoreEnv) StoreGlobalPtr(slot, val Ptr)   { e.rt.StoreGlobalPtr(slot, val) }
func (e *CoreEnv) AllocGlobals(nwords int) Ptr    { return e.rt.AllocGlobals(nwords) }

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
