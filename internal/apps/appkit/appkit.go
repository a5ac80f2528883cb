// Package appkit is the glue between the six benchmark applications and the
// allocators they are measured on. It plays the role the C toolchain plays
// in the paper: the same application code runs against
//
//   - malloc/free environments (Sun, BSD, Lea, and the Boehm–Weiser-style
//     collector with frees disabled), and
//   - region environments (the safe runtime, the unsafe runtime, and the
//     malloc-emulation region library over each malloc),
//
// with frames, globals, pointer-store barriers, and statistics routed to
// whichever system is active. Each environment owns a fresh simulated
// address space and counter set; attach the UltraSparc-I cache model with
// Config.Cache to measure the stall figures.
package appkit

import (
	"fmt"

	"regions/internal/cachesim"
	"regions/internal/core"
	"regions/internal/gc"
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
	"regions/internal/xmalloc"
)

// Ptr is a simulated heap address.
type Ptr = mem.Addr

// Frame is one activation's live pointer variables: shadow-stack slots
// under the safe region runtime, conservative roots under the collector,
// plain storage elsewhere. Apps must keep every live heap pointer in a
// frame slot, exactly as the paper's compiler keeps liveness maps.
type Frame interface {
	Set(i int, p Ptr)
	Get(i int) Ptr
}

// Env is the part shared by malloc and region environments.
type Env interface {
	Name() string
	Space() *mem.Space
	Counters() *stats.Counters
	PushFrame(n int) Frame
	PopFrame()
	// Safepoint gives a pending garbage collection a chance to run. Apps
	// call it at points where every live object is reachable from frames,
	// globals, or allocator metadata — typically once per outer loop
	// iteration. It is a no-op in environments without a collector.
	Safepoint()
	// Finalize folds end-of-run state (live regions, etc.) into the
	// counters. Call once, after the workload completes.
	Finalize()
}

// MallocEnv is an explicit allocation environment.
type MallocEnv interface {
	Env
	Alloc(size int) Ptr
	Free(p Ptr)
}

// Region is an opaque region handle.
type Region interface {
	Bytes() uint64
	Allocs() uint64
	Deleted() bool
}

// CleanupFunc is an environment-independent cleanup: it must call
// env.Destroy on every region pointer in the object and return the object's
// size in bytes (see core.CleanupFunc).
type CleanupFunc func(e RegionEnv, obj Ptr) int

// CleanupID identifies a registered cleanup.
type CleanupID = core.CleanupID

// RegionEnv is a region-based allocation environment.
type RegionEnv interface {
	Env
	NewRegion() Region
	DeleteRegion(r Region) bool
	Ralloc(r Region, size int, cln CleanupID) Ptr
	RarrayAlloc(r Region, n, elemSize int, cln CleanupID) Ptr
	RstrAlloc(r Region, size int) Ptr
	// RstrFree retires one RstrAlloc block of the given original size for
	// reuse within r. Optional — regions reclaim everything at deletion —
	// and advisory: environments without an explicit string free path (the
	// emulation library frees only at region deletion) treat it as a no-op,
	// so applications must not rely on it for correctness.
	RstrFree(r Region, p Ptr, size int)
	RegisterCleanup(name string, fn CleanupFunc) CleanupID
	SizeCleanup(size int) CleanupID
	Destroy(p Ptr)
	// StorePtr writes a region pointer into a region object (barriered
	// under the safe runtime); StoreGlobalPtr writes one into global
	// storage. AllocGlobals reserves global words.
	StorePtr(slot, val Ptr)
	StoreGlobalPtr(slot, val Ptr)
	AllocGlobals(nwords int) Ptr
	// Safe reports whether dangling references are detected (for tests).
	Safe() bool
}

// Config selects optional environment features.
type Config struct {
	Cache bool // attach the UltraSparc-I cache model
	// Tracer, when non-nil, receives the environment's runtime events
	// (region lifecycle, allocations, barriers, GC phases — see
	// internal/trace). Only the real region runtime and the collector
	// emit events; the emulation and plain malloc environments do not.
	Tracer *trace.Tracer
	// Metrics, when non-nil, attaches the environment's space (OS-level
	// series) and, where one exists, its region runtime or collector to the
	// registry (see internal/metrics). The registry reads their counts when
	// snapshotted, so snapshot it from the goroutine running the
	// environment. Like tracing, metering is host-side only: it charges no
	// simulated cycles and leaves stats.Counters untouched.
	Metrics *metrics.Registry
}

const globalPages = 4 // global segment reserved up front in every env

func newSpace(cfg Config) (*mem.Space, Ptr) {
	c := &stats.Counters{}
	sp := mem.NewSpace(c)
	if cfg.Cache {
		sp.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	}
	if cfg.Metrics != nil {
		sp.SetMetrics(cfg.Metrics)
	}
	g := sp.MapPages(globalPages) // before any allocator: keeps sbrk contiguous
	return sp, g
}

// MallocKinds lists the malloc environment names in the paper's order.
var MallocKinds = []string{"Sun", "BSD", "Lea", "GC"}

// RegionKinds lists the region environment names: the paper's safe library
// ("Reg"), the unsafe library, and the malloc emulations.
var RegionKinds = []string{"safe", "unsafe", "emu:Sun", "emu:BSD", "emu:Lea", "emu:GC"}

// NewMallocEnv builds a malloc environment: "Sun", "BSD", "Lea", or "GC".
func NewMallocEnv(kind string, cfg Config) MallocEnv {
	sp, g := newSpace(cfg)
	switch kind {
	case "Sun":
		return newMallocEnv(baseEnv{name: kind, sp: sp, globals: g}, xmalloc.NewSun(sp))
	case "BSD":
		return newMallocEnv(baseEnv{name: kind, sp: sp, globals: g}, xmalloc.NewBSD(sp))
	case "Lea":
		return newMallocEnv(baseEnv{name: kind, sp: sp, globals: g}, xmalloc.NewLea(sp))
	case "BZ":
		// Barrett–Zorn lifetime prediction (related work, not a paper
		// column). The allocation site is approximated by the request
		// size, which separates the apps' allocation sites well since
		// nearly every site allocates one fixed layout.
		return newMallocEnv(baseEnv{name: kind, sp: sp, globals: g}, bzAdapter{xmalloc.NewBZ(sp)})
	case "GC":
		col := gc.New(sp)
		col.RegisterRoots(g, g+globalPages*mem.PageSize)
		if cfg.Tracer != nil {
			col.SetTracer(cfg.Tracer)
		}
		if cfg.Metrics != nil {
			col.SetMetrics(cfg.Metrics)
		}
		return &gcEnv{baseEnv{name: kind, sp: sp, globals: g}, col}
	}
	panic(fmt.Sprintf("appkit: unknown malloc env %q", kind))
}

// NewRegionEnv builds a region environment: "safe", "unsafe", or
// "emu:<malloc kind>".
func NewRegionEnv(kind string, cfg Config) RegionEnv {
	if kind == "safe" || kind == "unsafe" {
		return NewCustomRegionEnv(kind, core.Options{Safe: kind == "safe"}, cfg)
	}
	var under string
	if _, err := fmt.Sscanf(kind, "emu:%s", &under); err != nil {
		panic(fmt.Sprintf("appkit: unknown region env %q", kind))
	}
	m := NewMallocEnv(under, cfg)
	e := &emuEnv{
		baseEnv: baseEnv{name: "emu:" + under, sp: m.Space(), globals: mustGlobals(m)},
		m:       m,
	}
	// Region list heads live in the global segment so they are collector
	// roots under the GC backend.
	e.lib = xmalloc.NewEmuRegions(m.Space(), mallocAdapter{m}, func() Ptr {
		return e.allocGlobalWords(1)
	})
	return e
}

// NewCustomRegionEnv builds a region environment over the real runtime with
// explicit options, for the ablation experiments (eager local counting,
// disabled region-structure coloring).
func NewCustomRegionEnv(name string, opts core.Options, cfg Config) *CoreEnv {
	sp, _ := newSpace(cfg)
	rt := core.NewRuntimeOpts(sp, opts)
	if cfg.Tracer != nil {
		rt.SetTracer(cfg.Tracer)
	}
	if cfg.Metrics != nil {
		rt.SetMetrics(cfg.Metrics)
	}
	return NewCoreEnv(name, rt)
}

func mustGlobals(m MallocEnv) Ptr { return m.(interface{ globalBase() Ptr }).globalBase() }

// --- base -----------------------------------------------------------------

type baseEnv struct {
	name      string
	sp        *mem.Space
	globals   Ptr
	globalOff Ptr
}

func (b *baseEnv) Name() string              { return b.name }
func (b *baseEnv) Space() *mem.Space         { return b.sp }
func (b *baseEnv) Counters() *stats.Counters { return b.sp.Counters() }
func (b *baseEnv) Safepoint()                {}
func (b *baseEnv) Finalize()                 {}
func (b *baseEnv) globalBase() Ptr           { return b.globals }

func (b *baseEnv) allocGlobalWords(n int) Ptr {
	need := Ptr(n * mem.WordSize)
	if b.globalOff+need > globalPages*mem.PageSize {
		panic("appkit: global segment exhausted")
	}
	p := b.globals + b.globalOff
	b.globalOff += need
	return p
}

// goFrame is a host-side frame for environments that need no root tracking.
type goFrame struct{ slots []Ptr }

func (f *goFrame) Set(i int, p Ptr) { f.slots[i] = p }
func (f *goFrame) Get(i int) Ptr    { return f.slots[i] }

type goFrameStack struct {
	frames []*goFrame
	pool   []*goFrame
}

func (s *goFrameStack) push(n int) Frame {
	var f *goFrame
	if len(s.pool) > 0 {
		f = s.pool[len(s.pool)-1]
		s.pool = s.pool[:len(s.pool)-1]
		if cap(f.slots) >= n {
			f.slots = f.slots[:n]
			for i := range f.slots {
				f.slots[i] = 0
			}
		} else {
			f.slots = make([]Ptr, n)
		}
	} else {
		f = &goFrame{slots: make([]Ptr, n)}
	}
	s.frames = append(s.frames, f)
	return f
}

func (s *goFrameStack) pop() {
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.pool = append(s.pool, f)
}

// --- malloc environments ----------------------------------------------------

type mallocEnv struct {
	baseEnv
	a     xmalloc.Allocator
	fs    goFrameStack
	sizes map[Ptr]int32 // requested (rounded) size per live pointer, for stats
}

func newMallocEnv(b baseEnv, a xmalloc.Allocator) *mallocEnv {
	return &mallocEnv{baseEnv: b, a: a, sizes: map[Ptr]int32{}}
}

func (e *mallocEnv) PushFrame(n int) Frame { return e.fs.push(n) }
func (e *mallocEnv) PopFrame()             { e.fs.pop() }

func (e *mallocEnv) Alloc(size int) Ptr {
	p := e.a.Alloc(size)
	if p == 0 {
		return 0 // OS refused memory; nothing was allocated
	}
	rounded := int32((size + 3) &^ 3)
	e.Counters().AddAlloc(int64(rounded))
	e.sizes[p] = rounded
	return p
}

func (e *mallocEnv) Free(p Ptr) {
	sz, ok := e.sizes[p]
	if !ok {
		panic("appkit: Free of unknown pointer")
	}
	delete(e.sizes, p)
	e.a.Free(p)
	e.Counters().AddFree(int64(sz))
}

type gcEnv struct {
	baseEnv
	g *gc.Collector
}

type gcFrame struct{ f gc.Frame }

func (f gcFrame) Set(i int, p Ptr) { f.f.Set(i, p) }
func (f gcFrame) Get(i int) Ptr    { return f.f.Get(i) }

func (e *gcEnv) PushFrame(n int) Frame { return gcFrame{e.g.PushFrame(n)} }
func (e *gcEnv) PopFrame()             { e.g.PopFrame() }
func (e *gcEnv) Safepoint()            { e.g.Safepoint() }

func (e *gcEnv) Alloc(size int) Ptr {
	p := e.g.Alloc(size)
	if p == 0 {
		return 0 // OS refused memory even after an emergency collection
	}
	e.Counters().AddAlloc(int64((size + 3) &^ 3))
	return p
}

// Free under the collector is a statistics-only no-op, as in the paper,
// where all frees are disabled: the object's requested size (kept in its
// header) stops counting as live, but the memory is reclaimed only by
// collection.
func (e *gcEnv) Free(p Ptr) {
	size := e.g.RequestedSize(p)
	e.Counters().AddFree(int64(size))
}

// bzAdapter exposes the Barrett–Zorn allocator through the plain Allocator
// interface, deriving the allocation site from the request size.
type bzAdapter struct{ z *xmalloc.BZ }

func (a bzAdapter) Name() string       { return a.z.Name() }
func (a bzAdapter) Alloc(size int) Ptr { return a.z.AllocAt(uint32(size), size) }
func (a bzAdapter) Free(p Ptr)         { a.z.Free(p) }

// mallocAdapter lets the emulation library treat any MallocEnv as a raw
// allocator (sizes and stats are already metered by the env).
type mallocAdapter struct{ m MallocEnv }

func (a mallocAdapter) Name() string       { return a.m.Name() }
func (a mallocAdapter) Alloc(size int) Ptr { return a.rawAlloc(size) }
func (a mallocAdapter) Free(p Ptr)         { a.rawFree(p) }

func (a mallocAdapter) rawAlloc(size int) Ptr {
	switch m := a.m.(type) {
	case *mallocEnv:
		return m.a.Alloc(size)
	case *gcEnv:
		return m.g.Alloc(size)
	}
	panic("appkit: unknown malloc env type")
}

func (a mallocAdapter) rawFree(p Ptr) {
	switch m := a.m.(type) {
	case *mallocEnv:
		m.a.Free(p)
	case *gcEnv:
		// Frees are disabled under the collector; the emulated region's
		// objects become garbage when the region dies.
	}
}
