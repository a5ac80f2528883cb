// Package gc implements a Boehm–Weiser-style conservative, non-moving
// mark–sweep garbage collector on the simulated heap — the paper's fourth
// comparison allocator (Section 5.2). As in the paper's methodology, all
// frees are disabled: Free is a statistics-only no-op and storage is
// reclaimed exclusively by collection.
//
// The design follows the collector's shape: the heap is divided into pages
// dedicated to a single object size class, small objects live on per-class
// free lists threaded through the objects, roots are scanned conservatively
// (any root word that could address a live chunk marks it, interior pointers
// included), and the heap grows when collection does not recover enough
// space. Marking and sweeping are charged to the GC accounting mode, so the
// collector's time and cache behaviour show up in Figures 9 and 10.
package gc

import (
	"sort"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
	"regions/internal/trace"
)

// Ptr is a simulated heap address.
type Ptr = mem.Addr

// Object header bits (word 0 of every chunk):
//
//	bit 0: in use
//	bit 1: mark
//	bits 2..31: requested data size in bytes
const (
	hdrInuse = 1
	hdrMark  = 2
)

// classSizes are chunk sizes (one header word plus data), chosen so each
// divides into 4 KB pages with little slack.
var classSizes = []int{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 408, 512, 816, 1024, 1364, 2048}

const maxSmallData = 2048 - mem.WordSize

// page classes in pageClass: values >= 0 index classSizes.
const (
	pageNone    = -1
	pageBigHead = -2
	pageBigTail = -3
)

// Collector is one conservative collector instance.
type Collector struct {
	sp *mem.Space
	c  *stats.Counters

	meta      Ptr // per-class free-list heads
	pageClass []int16
	bigPages  map[Ptr]int   // big-object head page -> page count
	freeBig   map[int][]Ptr // reclaimed big spans by page count

	frames []*frame
	rootLo Ptr // optional global root range
	rootHi Ptr

	bytesSinceGC uint64
	minCollect   uint64
	pending      bool

	// t holds the counts the metrics registry reads, allocated apart from
	// the collector so a source can hold it without holding the heap.
	t *tally

	work []Ptr // mark worklist (collector-private, like BW's mark stack)

	tracer *trace.Tracer // nil unless event tracing is attached

	unmeter func() // removes the collector's source from its registry
}

// tally is the collector's host-side counts beside stats.Counters: the
// live bytes the last collection found (the growth policy's threshold) and
// the collections the OS forced by refusing pages.
type tally struct {
	liveAfterGC         uint64
	pressureCollections uint64
}

// New creates a collector on sp.
func New(sp *mem.Space) *Collector {
	g := &Collector{
		sp:         sp,
		c:          sp.Counters(),
		bigPages:   map[Ptr]int{},
		freeBig:    map[int][]Ptr{},
		minCollect: 256 * 1024,
		t:          &tally{},
	}
	old := sp.SetMode(stats.ModeAlloc)
	g.meta = sp.MapPages(1)
	if g.meta == 0 {
		panic("gc: simulated OS refused the collector's metadata page")
	}
	g.notePages(g.meta, 1, pageNone)
	sp.SetMode(old)
	return g
}

// RegisterRoots adds [lo, hi) as a conservatively scanned root range,
// typically the program's global segment.
func (g *Collector) RegisterRoots(lo, hi Ptr) {
	g.rootLo, g.rootHi = lo, hi
}

// SetTracer attaches t as the collector's event sink (nil detaches); each
// collection then emits gc-mark-begin/end and gc-sweep-begin/end events. If
// t has no clock yet, the run's modelled cycle count becomes its timestamp
// source. Tracing charges no simulated cycles.
func (g *Collector) SetTracer(t *trace.Tracer) {
	g.tracer = t
	if t != nil {
		c := g.c
		t.InitClock(func() uint64 { return c.TotalCycles() })
	}
}

// SetMetrics registers the collector's counts with reg as a pulled source,
// replacing any earlier registration; nil detaches. The source reads the
// counts directly, so snapshot the registry only from the goroutine that
// owns the collector. It holds the counts, not the collector, so the
// registry never keeps the heap alive.
func (g *Collector) SetMetrics(reg *metrics.Registry) {
	if g.unmeter != nil {
		g.unmeter()
		g.unmeter = nil
	}
	if reg == nil {
		return
	}
	c, t := g.c, g.t
	g.unmeter = reg.AddSource(func(s *metrics.Sink) {
		s.Counter("regions_gc_collections_total", c.GCCollections)
		s.Counter("regions_gc_pressure_collections_total", t.pressureCollections)
		s.Gauge("regions_gc_live_bytes", int64(t.liveAfterGC))
	})
}

func (g *Collector) notePages(first Ptr, n int, class int16) {
	firstNo := int(first >> mem.PageShift)
	for len(g.pageClass) < firstNo+n {
		g.pageClass = append(g.pageClass, pageNone)
	}
	for i := 0; i < n; i++ {
		g.pageClass[firstNo+i] = class
	}
}

func classFor(data int) int {
	for i, cs := range classSizes {
		if cs-mem.WordSize >= data {
			return i
		}
	}
	return -1
}

func (g *Collector) freeHead(class int) Ptr { return g.meta + Ptr(class*mem.WordSize) }

// Alloc allocates size bytes of zeroed memory. Collection may run first.
// When the simulated OS refuses pages, the collector runs an emergency
// collection and retries; if the heap still cannot satisfy the request,
// Alloc returns 0 (TryAlloc returns the typed error instead). An emergency
// collection can run between safepoints, so this path assumes live objects
// are reachable from frames or registered roots — the same contract as
// Safepoint; it only triggers when the OS is actually refusing memory.
func (g *Collector) Alloc(size int) Ptr {
	if size <= 0 {
		panic("gc: Alloc of non-positive size")
	}
	data := (size + 3) &^ 3
	g.noteAllocated(uint64(data))

	old := g.sp.SetMode(stats.ModeAlloc)
	defer g.sp.SetMode(old)
	g.c.Cycles[stats.ModeAlloc] += 3

	var p Ptr
	if data <= maxSmallData {
		p = g.allocSmall(data)
	} else {
		p = g.allocBig(data)
	}
	if p == 0 && g.tracer != nil {
		g.tracer.Emit(trace.Event{Kind: trace.KindFault, Region: -1,
			Size: int32(data), Aux: -1, Site: "oom"})
	}
	return p
}

// TryAlloc is Alloc returning a typed *mem.OOMError (wrapping
// mem.ErrOutOfMemory) when even an emergency collection cannot satisfy the
// request.
func (g *Collector) TryAlloc(size int) (Ptr, error) {
	p := g.Alloc(size)
	if p == 0 {
		return 0, g.sp.OOM("gc: alloc")
	}
	return p, nil
}

// emergencyCollect runs a collection in response to the OS refusing pages,
// regardless of the growth policy's pending flag.
func (g *Collector) emergencyCollect() {
	g.pending = false
	g.t.pressureCollections++
	g.Collect()
}

func (g *Collector) allocSmall(data int) Ptr {
	class := classFor(data)
	hd := g.freeHead(class)
	slot := g.sp.Load(hd)
	if slot == 0 {
		if !g.carvePage(class) {
			// OS refused a fresh page: collect, then retry the replenished
			// free list before asking the OS once more.
			g.emergencyCollect()
			if g.sp.Load(hd) == 0 && !g.carvePage(class) {
				return 0
			}
		}
		slot = g.sp.Load(hd)
	}
	g.sp.Store(hd, g.sp.Load(slot+mem.WordSize)) // pop
	g.sp.Store(slot, uint32(data)<<2|hdrInuse)
	g.sp.ZeroRange(slot+mem.WordSize, data)
	g.bytesSinceGC += uint64(classSizes[class])
	return slot + mem.WordSize
}

// carvePage dedicates a fresh page to class and threads its slots onto the
// free list, reporting false if the simulated OS refuses the page.
func (g *Collector) carvePage(class int) bool {
	page := g.sp.MapPages(1)
	if page == 0 {
		return false
	}
	g.notePages(page, 1, int16(class))
	cs := classSizes[class]
	hd := g.freeHead(class)
	for off := mem.PageSize/cs*cs - cs; off >= 0; off -= cs {
		slot := page + Ptr(off)
		g.sp.Store(slot, 0) // free
		g.sp.Store(slot+mem.WordSize, g.sp.Load(hd))
		g.sp.Store(hd, slot)
	}
	return true
}

func (g *Collector) allocBig(data int) Ptr {
	n := (data + mem.WordSize + mem.PageSize - 1) / mem.PageSize
	page := g.takeBig(n)
	if page == 0 {
		g.emergencyCollect()
		if page = g.takeBig(n); page == 0 {
			return 0
		}
	}
	g.bigPages[page] = n
	g.sp.Store(page, uint32(data)<<2|hdrInuse)
	g.bytesSinceGC += uint64(n * mem.PageSize)
	return page + mem.WordSize
}

// takeBig returns an n-page span from the reclaimed-span list or the OS,
// or 0 when neither can provide one.
func (g *Collector) takeBig(n int) Ptr {
	if spans := g.freeBig[n]; len(spans) > 0 {
		page := spans[len(spans)-1]
		g.freeBig[n] = spans[:len(spans)-1]
		for i := 0; i < n; i++ {
			g.sp.ZeroPageFree(page + Ptr(i)<<mem.PageShift)
		}
		return page
	}
	page := g.sp.MapPages(n)
	if page == 0 {
		return 0
	}
	g.notePages(page, 1, pageBigHead)
	if n > 1 {
		g.notePages(page+mem.PageSize, n-1, pageBigTail)
	}
	return page
}

// RequestedSize returns the rounded data size recorded in a live object's
// header. It charges no cycles; it exists so callers implementing the
// paper's "frees disabled" discipline can keep requested-byte statistics.
func (g *Collector) RequestedSize(p Ptr) int {
	var hdr uint32
	g.sp.Uncharged(func() { hdr = g.sp.Load(p - mem.WordSize) })
	if hdr&hdrInuse == 0 {
		panic("gc: RequestedSize of dead object")
	}
	return int(hdr >> 2)
}

// noteAllocated implements the heap-growth policy: when the bytes allocated
// since the last collection exceed the live data (or a floor), a collection
// becomes pending. It runs at the next Safepoint rather than immediately,
// so values held only in host-side temporaries between safepoints are never
// collected — the role the C stack scan plays for the real collector.
func (g *Collector) noteAllocated(n uint64) {
	threshold := g.t.liveAfterGC
	if threshold < g.minCollect {
		threshold = g.minCollect
	}
	if g.bytesSinceGC+n >= threshold {
		g.pending = true
	}
}

// Safepoint runs a pending collection. Callers must invoke it only when
// every live object is reachable from frames or registered roots.
func (g *Collector) Safepoint() {
	if g.pending {
		g.pending = false
		g.Collect()
	}
}

// Collect runs a full stop-the-world mark–sweep collection.
func (g *Collector) Collect() {
	old := g.sp.SetMode(stats.ModeGC)
	defer g.sp.SetMode(old)
	g.c.GCCollections++
	g.c.Cycles[stats.ModeGC] += 50 // world stop/start overhead
	ordinal := int32(g.c.GCCollections)

	// Mark phase: conservative scan of frames and the global range.
	if g.tracer != nil {
		g.tracer.Emit(trace.Event{Kind: trace.KindGCMarkBegin, Region: -1, Aux: ordinal})
	}
	for _, f := range g.frames {
		for _, v := range f.slots {
			g.c.Cycles[stats.ModeGC]++
			g.markConservative(v)
		}
	}
	for a := g.rootLo; a < g.rootHi; a += mem.WordSize {
		g.markConservative(g.sp.Load(a))
	}
	for len(g.work) > 0 {
		slot := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		g.scanObject(slot)
	}
	if g.tracer != nil {
		g.tracer.Emit(trace.Event{Kind: trace.KindGCMarkEnd, Region: -1, Aux: ordinal})
		g.tracer.Emit(trace.Event{Kind: trace.KindGCSweepBegin, Region: -1, Aux: ordinal})
	}

	g.sweep()
	g.bytesSinceGC = 0
	if g.tracer != nil {
		live := g.t.liveAfterGC
		if live > 1<<31-1 {
			live = 1<<31 - 1
		}
		g.tracer.Emit(trace.Event{Kind: trace.KindGCSweepEnd, Region: -1,
			Size: int32(live), Aux: ordinal})
	}
}

// chunkOf maps an arbitrary word to the chunk containing it, or 0.
// Interior pointers are honoured, as in the Boehm–Weiser collector.
func (g *Collector) chunkOf(v Ptr) Ptr {
	pg := int(v >> mem.PageShift)
	if pg <= 0 || pg >= len(g.pageClass) {
		return 0
	}
	switch class := g.pageClass[pg]; {
	case class >= 0:
		cs := Ptr(classSizes[class])
		base := v &^ Ptr(mem.PageSize-1)
		off := (v - base) / cs * cs
		if int(off)+int(cs) > mem.PageSize {
			return 0 // page slack past the last whole slot
		}
		return base + off
	case class == pageBigHead:
		return v &^ Ptr(mem.PageSize-1)
	case class == pageBigTail:
		for p := pg; p > 0; p-- {
			if g.pageClass[p] == pageBigHead {
				return Ptr(p) << mem.PageShift
			}
		}
	}
	return 0
}

func (g *Collector) markConservative(v Ptr) {
	slot := g.chunkOf(v)
	if slot == 0 {
		return
	}
	hdr := g.sp.Load(slot)
	if hdr&hdrInuse == 0 || hdr&hdrMark != 0 {
		return
	}
	g.sp.Store(slot, hdr|hdrMark)
	g.work = append(g.work, slot)
}

// scanObject conservatively scans the data words of a marked chunk.
func (g *Collector) scanObject(slot Ptr) {
	hdr := g.sp.Load(slot)
	data := int(hdr >> 2)
	for off := mem.WordSize; off <= data; off += mem.WordSize {
		g.markConservative(g.sp.Load(slot + Ptr(off)))
	}
}

// sweep rebuilds the free lists from unmarked chunks and clears marks.
func (g *Collector) sweep() {
	var live uint64
	// Reset small free lists; surviving order is address order.
	for class := range classSizes {
		g.sp.Store(g.freeHead(class), 0)
	}
	heads := make([]Ptr, len(classSizes)) // tail-insert cursors (host-side)
	for pg := len(g.pageClass) - 1; pg > 0; pg-- {
		class := g.pageClass[pg]
		if class < 0 {
			continue
		}
		cs := classSizes[class]
		page := Ptr(pg) << mem.PageShift
		for off := mem.PageSize/cs*cs - cs; off >= 0; off -= cs {
			slot := page + Ptr(off)
			hdr := g.sp.Load(slot)
			switch {
			case hdr&hdrInuse == 0: // already free
				g.sp.Store(slot+mem.WordSize, heads[class])
				heads[class] = slot
			case hdr&hdrMark != 0: // survivor
				g.sp.Store(slot, hdr&^uint32(hdrMark))
				live += uint64(cs)
			default: // garbage
				g.sp.Store(slot, 0)
				g.sp.Store(slot+mem.WordSize, heads[class])
				heads[class] = slot
			}
		}
	}
	for class := range classSizes {
		g.sp.Store(g.freeHead(class), heads[class])
	}
	// Big objects: unmarked heads are garbage; their spans go to a
	// per-page-count reuse list (a simplification of BW's block freeing).
	// Heads are visited in address order so runs stay deterministic.
	bigHeads := make([]Ptr, 0, len(g.bigPages))
	for page := range g.bigPages {
		bigHeads = append(bigHeads, page)
	}
	sort.Slice(bigHeads, func(i, j int) bool { return bigHeads[i] < bigHeads[j] })
	for _, page := range bigHeads {
		n := g.bigPages[page]
		hdr := g.sp.Load(page)
		if hdr&hdrMark != 0 {
			g.sp.Store(page, hdr&^uint32(hdrMark))
			live += uint64(n * mem.PageSize)
		} else {
			g.sp.Store(page, 0)
			g.freeBig[n] = append(g.freeBig[n], page)
			delete(g.bigPages, page)
		}
	}
	g.t.liveAfterGC = live
}

// --- Shadow stack of conservative roots -----------------------------------

type frame struct {
	slots []Ptr
}

// Frame is a root frame handle.
type Frame struct{ f *frame }

// PushFrame enters an activation with n root slots.
func (g *Collector) PushFrame(n int) Frame {
	f := &frame{slots: make([]Ptr, n)}
	g.frames = append(g.frames, f)
	return Frame{f}
}

// PopFrame leaves the innermost activation.
func (g *Collector) PopFrame() {
	if len(g.frames) == 0 {
		panic("gc: PopFrame on empty stack")
	}
	g.frames = g.frames[:len(g.frames)-1]
}

// Set stores a root.
func (fr Frame) Set(i int, p Ptr) { fr.f.slots[i] = p }

// Get reads a root.
func (fr Frame) Get(i int) Ptr { return fr.f.slots[i] }

// Collections returns how many collections have run.
func (g *Collector) Collections() uint64 { return g.c.GCCollections }

// HeapBytes returns the bytes the collector has mapped for objects.
func (g *Collector) HeapBytes() uint64 {
	var n uint64
	for _, c := range g.pageClass {
		if c >= 0 || c == pageBigHead || c == pageBigTail {
			n += mem.PageSize
		}
	}
	return n
}
