package regions_test

import (
	"errors"
	"runtime/debug"
	"testing"

	"regions"
)

// Operation codes FuzzSystemOps decodes, one per op byte modulo sysOps.
const (
	opNewRegion = iota
	opDelete
	opRalloc
	opRarrayAlloc
	opRstrAlloc
	opRstrFree
	opStorePtr
	opStoreGlobalPtr
	opStorePtrDynamic
	opLoad
	opStore
	opPushFrame
	opFrameSet
	opPopFrame
	opExport
	opImport
	opSweep
	opAllocGlobals
	opProbeDead
	sysOps
)

// maxSysOps bounds the calls one input makes, so every execution stays
// small however long the input is.
const maxSysOps = 256

// sysArgs is how many argument bytes follow each op byte; an operation
// decodes its arguments from those alone, zeros past the ones it uses, so
// every op starts at a fixed offset and a seed reads as a list of calls.
const sysArgs = 8

// sysReader hands out the fuzz input a byte at a time, then zeros.
type sysReader []byte

func (r *sysReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// pick decodes an index below n (n > 0).
func (r *sysReader) pick(n int) int { return int(r.next()) % n }

// hostile decodes a size or count: ordinary small values most of the time,
// and otherwise zero, negatives, the boundaries of one page-list entry and
// values whose products wrap.
func (r *sysReader) hostile() int {
	b := r.next()
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return -int(r.next()) - 1
	case 2:
		return 4096*4096 - 4 - int(r.next()%16) // one entry's data, give or take
	case 3:
		return 1 << (20 + r.next()%44)
	case 4:
		return int(r.next())<<8 | int(r.next())
	default:
		return int(b>>4)*4 + int(b%4)
	}
}

// sysObject is a live ralloc'd object or array element. A cell holds a
// counted region pointer in its second word; any other object is
// pointer-free.
type sysObject struct {
	p    regions.Ptr
	size int
	r    *regions.Region
	cell bool
}

// sysBlock is an RstrAlloc block the model believes live.
type sysBlock struct {
	p    regions.Ptr
	size int
	r    *regions.Region
}

// sysDead is a dead region handle and the fault its first probe reported:
// every later call must report the same region and header address.
type sysDead struct {
	r        *regions.Region
	migrated bool
	region   int32
	addr     regions.Ptr
}

// sysExport is an exported record and the objects its region held, to be
// found again through Translate once it is imported.
type sysExport struct {
	rec  *regions.RegionRecord
	objs []sysObject
}

// sysMachine drives one System with decoded public calls and mirrors what
// it needs to pick legal and illegal arguments: the live regions, objects
// and string blocks, the frames, the global slots, the exported records,
// and every dead region handle, kept for probing until the input ends.
type sysMachine struct {
	t    *testing.T
	in   sysReader // the input, one op byte and sysArgs argument bytes per call
	arg  sysReader // the current op's argument bytes
	sys  *regions.System
	cell regions.CleanupID

	live    []*regions.Region
	objs    []sysObject
	strs    []sysBlock // live string blocks, in allocation order
	freed   []sysBlock // blocks freed once, kept to free again
	frames  []*regions.Frame
	stale   []*regions.Frame // popped frames
	globals []regions.Ptr
	exports []sysExport
	dead    []sysDead
	n       int // calls made
}

// FuzzSystemOps decodes its input into a sequence of public System calls,
// misuse included: allocations with hostile sizes and counts, frees of
// every kind of block, the three pointer stores, loads and stores at
// arbitrary addresses, frames, deletes, export and import, sweeps under
// DeferredDelete, and calls on every dead handle, kept and probed again
// later. The oracle, per call: a success leaves Verify nil; a rejection is
// a typed error or a *Fault panic and leaves Verify nil too; any other
// panic fails. The model never stores a value that could alias a region
// address the runtime does not count, or a region pointer into
// pointer-free data: those break the C@ discipline Verify assumes, which
// no runtime check can see.
func FuzzSystemOps(f *testing.F) {
	op := func(code int, args ...byte) []byte { return append([]byte{byte(code)}, args...) }
	seq := func(flags byte, ops ...[]byte) []byte {
		b := []byte{flags}
		for _, o := range ops {
			b = append(b, append(o, make([]byte, sysArgs+1-len(o))...)...)
		}
		return b
	}
	// sz encodes a small size or count (below 64) for hostile.
	sz := func(n int) byte { return byte(n/4<<4 | (n%4 + 8)) }
	// A cell in one region pointing at an object in another, failed and
	// good deletes, a dead handle probed and deleted again, then a global
	// reference through the dynamic store.
	f.Add(seq(0,
		op(opNewRegion), op(opNewRegion),
		op(opRalloc, 0, 0, 1, 0), op(opRalloc, 1, sz(16), 0, 1, 1), op(opRstrAlloc, 1, sz(16), 0),
		op(opStorePtr, 0, 2|1<<2, 0), op(opDelete, 1, 0), op(opDelete, 0, 1),
		op(opProbeDead, 0), op(opDelete, 0x80, 1),
		op(opAllocGlobals, 2), op(opStorePtrDynamic, 1, 2, 0), op(opDelete, 0, 0),
		op(opStoreGlobalPtr, 1, 0), op(opDelete, 0, 0)))
	// Deferred deletion with a one-page sweep budget: a dead handle probed
	// while detached, after one slice and after the drain.
	f.Add(seq(2|16,
		op(opNewRegion), op(opRarrayAlloc, 0, sz(3), sz(8), 1), op(opRstrAlloc, 0, 4, 0x30, 0, 0),
		op(opDelete, 0, 0), op(opProbeDead, 0), op(opSweep, 0), op(opProbeDead, 0),
		op(opNewRegion), op(opSweep, 1), op(opProbeDead, 0), op(opRalloc, 0, sz(12), 0, 1, 0)))
	// String frees: a good one, a double one, one through the wrong region,
	// a negative size, a reused block freed through its old name, a normal
	// object, and a store into live string data.
	f.Add(seq(0,
		op(opNewRegion), op(opNewRegion),
		op(opRstrAlloc, 0, sz(16), 0), op(opRstrAlloc, 1, sz(36), 0),
		op(opRstrFree, 0, 0, 0), op(opRstrFree, 2, 0, 0), op(opRstrFree, 0, 1, 0, 0),
		op(opRstrFree, 0, 2, 1, 5, 1), op(opRstrAlloc, 0, sz(16), 0), op(opRstrFree, 2, 0, 0),
		op(opRalloc, 0, sz(16), 0, 1, 0), op(opRstrFree, 3, 0, 0), op(opStore, 1, 7, 0)))
	// Frames: a frame reference blocks a delete, a write to the scanned
	// frame, slots out of range, a popped frame, underflow, and a frame
	// of negative size.
	f.Add(seq(0,
		op(opNewRegion), op(opRalloc, 0, 0, 1, 0),
		op(opPushFrame, 2), op(opFrameSet, 0, 1, 2, 0), op(opPushFrame, 1),
		op(opDelete, 0, 0), op(opFrameSet, 0, 1, 0), op(opFrameSet, 1, 5, 0),
		op(opPopFrame), op(opPopFrame), op(opPopFrame), op(opFrameSet, 0, 0, 0),
		op(opPushFrame, 0xff), op(opDelete, 0, 0)))
	// Export and import: a same-region pointer, the migrated handle, a
	// record imported twice, then stores into the imported objects.
	f.Add(seq(0,
		op(opNewRegion), op(opRalloc, 0, 0, 1, 0), op(opRalloc, 0, sz(16), 0, 1, 0),
		op(opStorePtr, 0, 2|1<<2, 0), op(opRstrAlloc, 0, sz(48), 0),
		op(opExport, 0), op(opProbeDead, 0), op(opImport, 0), op(opImport, 0),
		op(opStorePtrDynamic, 0, 2|2<<2, 0), op(opStore, 0, 9, 0), op(opDelete, 0, 0), op(opDelete, 0, 0)))
	// Hostile sizes and counts, and arbitrary addresses.
	f.Add(seq(0,
		op(opNewRegion), op(opRalloc, 0, 1, 0, 0, 1, 0), op(opRalloc, 0, 2, 0, 0, 1, 0),
		op(opRarrayAlloc, 0, 3, 12, 3, 12, 0, 1), op(opRarrayAlloc, 0, 3, 11, 0, 0, 1),
		op(opRstrAlloc, 0, 3, 20, 0), op(opAllocGlobals, 0xff), op(opAllocGlobals, 0x80, 9),
		op(opLoad, 0, 0, 0), op(opLoad, 0x93, 0x10, 0), op(opStore, 2, 0, 0x08, 0x10, 0),
		op(opStorePtr, 2, 0x93, 0x10, 0), op(opStorePtr, 0x83, 0, 0x10, 0), op(opDelete, 0, 0)))
	// The unsafe runtime under a 48-page limit: allocations refused for
	// memory, and a global store to a region slot.
	f.Add(seq(1|8,
		op(opNewRegion), op(opRalloc, 0, 4, 0xff, 0xff, 0, 1, 0),
		op(opRstrAlloc, 0, 4, 0xff, 0xff, 0), op(opRstrAlloc, 0, 4, 0xff, 0xff, 0),
		op(opRalloc, 0, 0, 1, 0), op(opStoreGlobalPtr, 0, 0), op(opDelete, 0, 0), op(opProbeDead, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m := newSysMachine(t, data)
		for len(m.in) > 0 && m.n < maxSysOps {
			m.step()
			if got := len(m.sys.LiveRegions()); got != len(m.live) {
				t.Fatalf("after call %d: %d live regions, the model holds %d", m.n, got, len(m.live))
			}
		}
		for i := range m.dead {
			m.probeDead(i)
		}
	})
}

// newSysMachine builds the System the input's first byte configures: bit 0
// unsafe, bit 1 deferred deletion, bit 2 no string pool, bit 3 a 48-page
// limit instead of 1,024 pages, bit 4 a one-page sweep budget. The limit
// keeps every Verify, which reads the whole heap, fast.
func newSysMachine(t *testing.T, data []byte) *sysMachine {
	m := &sysMachine{t: t, in: data}
	flags := m.in.next()
	var opts []regions.Option
	if flags&1 != 0 {
		opts = append(opts, regions.Unsafe())
	}
	if flags&2 != 0 {
		opts = append(opts, regions.DeferredDelete())
		if flags&16 != 0 {
			opts = append(opts, regions.WithSweepBudget(1))
		}
	}
	if flags&4 != 0 {
		opts = append(opts, regions.NoStrPool())
	}
	limit := 1024
	if flags&8 != 0 {
		limit = 48
	}
	opts = append(opts, regions.WithPageLimit(limit))
	m.sys = regions.New(opts...)
	m.cell = m.sys.RegisterCleanup("cell", func(rt *regions.Runtime, obj regions.Ptr) int {
		rt.Destroy(rt.Space().Load(obj + 4))
		return 8
	})
	return m
}

// call runs one public call and applies the oracle: a *Fault panic is a
// rejection like a returned error, every rejection must be typed, and the
// heap must verify either way. Any other panic fails the input.
func (m *sysMachine) call(what string, fn func() error) error {
	m.t.Helper()
	m.n++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				perr, ok := p.(error)
				var f *regions.Fault
				if !ok || !errors.As(perr, &f) {
					m.t.Fatalf("call %d, %s: untyped panic: %v\n%s", m.n, what, p, debug.Stack())
				}
				err = perr
			}
		}()
		return fn()
	}()
	if err != nil && !typed(err) {
		m.t.Fatalf("call %d, %s: untyped error %v", m.n, what, err)
	}
	if verr := m.sys.Verify(); verr != nil {
		m.t.Fatalf("call %d, %s (error %v): Verify: %v", m.n, what, err, verr)
	}
	return err
}

// typed reports whether err is one the public API documents: a *Fault or
// a migration refusal sentinel.
func typed(err error) bool {
	var f *regions.Fault
	return errors.As(err, &f) || errors.Is(err, regions.ErrExportReferenced) ||
		errors.Is(err, regions.ErrExportCrossRegion) || errors.Is(err, regions.ErrImportCleanup)
}

// region decodes a region handle: a live one, or a dead one when the byte
// asks for it and one exists.
func (m *sysMachine) region() *regions.Region {
	b := m.arg.next()
	if len(m.dead) > 0 && (b&0x80 != 0 || len(m.live) == 0) {
		return m.dead[int(b&0x7f)%len(m.dead)].r
	}
	if len(m.live) == 0 {
		return nil
	}
	return m.live[int(b)%len(m.live)]
}

// value decodes a word safe to store anywhere the model stores one: nil, a
// small integer below page 1 (never a region address), an address inside a
// live object, or a global slot.
func (m *sysMachine) value() regions.Ptr {
	b := m.arg.next()
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return regions.Ptr(m.arg.next()) * 4
	case 2:
		if len(m.objs) > 0 {
			if o := m.objs[int(b>>2)%len(m.objs)]; o.size > 0 {
				return o.p + regions.Ptr(int(m.arg.next())%o.size)
			}
		}
	case 3:
		if len(m.globals) > 0 {
			return m.globals[int(b>>2)%len(m.globals)]
		}
	}
	return 0
}

// addr decodes an arbitrary address in the first 64 pages, off a word
// boundary when the first byte's top bit is set.
func (m *sysMachine) addr() regions.Ptr {
	b := m.arg.next()
	a := (regions.Ptr(b) | regions.Ptr(m.arg.next())<<8 | regions.Ptr(m.arg.next())<<16) % (64 << 12) &^ 3
	if b&0x80 != 0 {
		a += 1 + regions.Ptr(b)%3
	}
	return a
}

// slot decodes the word a pointer store writes: a cell's pointer word, a
// global slot, or (misuse) an address off a word boundary, in the nil page
// or past every mapped page.
func (m *sysMachine) slot() regions.Ptr {
	b := m.arg.next()
	switch b % 3 {
	case 0:
		var cells []sysObject
		for _, o := range m.objs {
			if o.cell {
				cells = append(cells, o)
			}
		}
		if len(cells) > 0 {
			return cells[int(b>>2)%len(cells)].p + 4
		}
	case 1:
		if len(m.globals) > 0 {
			return m.globals[int(b>>2)%len(m.globals)]
		}
	}
	a := m.addr()
	switch end := m.sys.MappedBytes() + 4096; {
	case a%4 != 0:
		return a
	case b&0x80 != 0 && end < 1<<32:
		return regions.Ptr(end) + a%4096
	}
	return a % 4096
}

func (m *sysMachine) step() {
	code := m.in.next()
	n := min(sysArgs, len(m.in))
	m.arg, m.in = m.in[:n], m.in[n:]
	switch int(code) % sysOps {
	case opNewRegion:
		var r *regions.Region
		if m.call("NewRegion", func() error { r = m.sys.NewRegion(); return nil }) == nil {
			m.live = append(m.live, r)
		}
	case opDelete:
		r := m.region()
		if r == nil {
			return
		}
		try := m.arg.next()&1 == 0
		var ok bool
		err := m.call("DeleteRegion", func() (err error) {
			if try {
				ok, err = m.sys.TryDeleteRegion(r)
			} else {
				ok = m.sys.DeleteRegion(r)
			}
			return err
		})
		if err == nil && ok {
			m.bury(r, false)
		}
	case opRalloc:
		r, size, cell := m.region(), m.arg.hostile(), m.arg.next()%4 == 1
		if r == nil {
			return
		}
		cln := m.cleanup(size, cell)
		if cell {
			size = 8
		}
		var p regions.Ptr
		if m.call("Ralloc", func() (err error) {
			if m.arg.next()&1 == 0 {
				p, err = m.sys.TryRalloc(r, size, cln)
			} else {
				p = m.sys.Ralloc(r, size, cln)
			}
			return err
		}) == nil {
			m.objs = append(m.objs, sysObject{p: p, size: size, r: r, cell: cell})
		}
	case opRarrayAlloc:
		r, n, size, cell := m.region(), m.arg.hostile(), m.arg.hostile(), m.arg.next()%4 == 1
		if r == nil {
			return
		}
		cln := m.cleanup(size, cell)
		if cell {
			size = 8
		}
		var p regions.Ptr
		if m.call("RarrayAlloc", func() (err error) {
			p, err = m.sys.TryRarrayAlloc(r, n, size, cln)
			return err
		}) == nil {
			esz := (size + 3) &^ 3
			for i := 0; i < n && i < 64; i++ {
				m.objs = append(m.objs, sysObject{p: p + regions.Ptr(i*esz), size: size, r: r, cell: cell})
			}
		}
	case opRstrAlloc:
		r, size := m.region(), m.arg.hostile()
		if r == nil {
			return
		}
		var p regions.Ptr
		if m.call("RstrAlloc", func() (err error) {
			if m.arg.next()&1 == 0 {
				p, err = m.sys.TryRstrAlloc(r, size)
			} else {
				p = m.sys.RstrAlloc(r, size)
			}
			return err
		}) == nil && size > 0 {
			m.dropStr(p)
			m.strs = append(m.strs, sysBlock{p: p, size: size, r: r})
		}
	case opRstrFree:
		m.rstrFree()
	case opStorePtr, opStoreGlobalPtr, opStorePtrDynamic:
		m.storePtr(int(code) % sysOps)
	case opLoad:
		a := m.addr()
		m.call("Load", func() error { m.sys.Load(a); return nil })
	case opStore:
		m.store()
	case opPushFrame:
		n := int(int8(m.arg.next()))
		var f *regions.Frame
		if m.call("PushFrame", func() error { f = m.sys.PushFrame(n); return nil }) == nil {
			m.frames = append(m.frames, f)
		}
	case opFrameSet:
		all := append(append([]*regions.Frame(nil), m.frames...), m.stale...)
		if len(all) == 0 {
			return
		}
		f, i, v := all[m.arg.pick(len(all))], int(int8(m.arg.next())), m.value()
		m.call("Frame.Set", func() error { f.Set(i, v); return nil })
	case opPopFrame:
		if m.call("PopFrame", func() error { m.sys.PopFrame(); return nil }) == nil {
			f := m.frames[len(m.frames)-1]
			m.frames = m.frames[:len(m.frames)-1]
			m.stale = append(m.stale, f)
		}
	case opExport:
		r := m.region()
		if r == nil {
			return
		}
		var rec *regions.RegionRecord
		if m.call("ExportRegion", func() (err error) {
			rec, err = m.sys.ExportRegion(r)
			return err
		}) == nil {
			objs := m.bury(r, true)
			m.exports = append(m.exports, sysExport{rec: rec, objs: objs})
		}
	case opImport:
		if len(m.exports) == 0 {
			return
		}
		x := m.exports[m.arg.pick(len(m.exports))]
		var r *regions.Region
		if m.call("ImportRegion", func() (err error) {
			r, err = m.sys.ImportRegion(x.rec)
			return err
		}) == nil {
			m.live = append(m.live, r)
			for _, o := range x.objs {
				if p, ok := x.rec.Translate(o.p); ok {
					o.p, o.r = p, r
					m.objs = append(m.objs, o)
				}
			}
		}
	case opSweep:
		drain := m.arg.next()&1 != 0
		m.call("Sweep", func() error {
			if drain {
				m.sys.SweepDrain()
			} else {
				m.sys.SweepSlice()
			}
			return nil
		})
	case opAllocGlobals:
		n := int(int8(m.arg.next())) // global words are scanned by every Verify
		if n == -128 {
			n = 1 << (31 + m.arg.next()%33)
		}
		var g regions.Ptr
		if m.call("AllocGlobals", func() error { g = m.sys.AllocGlobals(n); return nil }) == nil {
			for i := 0; i < n && i < 16; i++ {
				m.globals = append(m.globals, g+regions.Ptr(4*i))
			}
		}
	case opProbeDead:
		if len(m.dead) > 0 {
			m.probeDead(m.arg.pick(len(m.dead)))
		}
	}
}

// cleanup decodes the cleanup of an allocation of size bytes: the cell
// cleanup, the size's own SizeCleanup, or (misuse) an id never registered.
func (m *sysMachine) cleanup(size int, cell bool) regions.CleanupID {
	switch {
	case cell:
		return m.cell
	case m.arg.next()%8 == 0:
		return regions.CleanupID(1000 + int(m.arg.next()))
	case size < 0:
		return m.cell
	}
	return m.sys.SizeCleanup(size)
}

// rstrFree frees a live block, a freed one again, a block of one region
// through another, a normal object, or a block with a hostile size. Wrong
// sizes that stay inside allocated string data are left out: the string
// side keeps no headers, so no check can see them (see TryRstrFree).
func (m *sysMachine) rstrFree() {
	b := m.arg.next()
	var blk sysBlock
	switch b % 4 {
	case 0, 1:
		if len(m.strs) == 0 {
			return
		}
		blk = m.strs[int(b>>2)%len(m.strs)]
	case 2:
		if len(m.freed) == 0 {
			return
		}
		blk = m.freed[int(b>>2)%len(m.freed)]
	case 3:
		if len(m.objs) == 0 {
			return
		}
		o := m.objs[int(b>>2)%len(m.objs)]
		blk = sysBlock{p: o.p, size: max(o.size, 1), r: o.r}
	}
	r, size := blk.r, blk.size
	switch m.arg.next() % 4 {
	case 1:
		if o := m.region(); o != nil {
			r = o
		}
	case 2:
		size = m.arg.hostile()
		if size > 0 && size < 1<<20 {
			size = -size
		}
	}
	try := m.arg.next()&1 == 0
	if m.call("RstrFree", func() error {
		if try {
			return m.sys.TryRstrFree(r, blk.p, size)
		}
		m.sys.RstrFree(r, blk.p, size)
		return nil
	}) == nil {
		if live, ok := m.dropStr(blk.p); ok {
			m.freed = append(m.freed, live)
		}
	}
}

// dropStr removes the live block at p from the model: the runtime has
// freed it, or handed its memory out again.
func (m *sysMachine) dropStr(p regions.Ptr) (sysBlock, bool) {
	for i, s := range m.strs {
		if s.p == p {
			m.strs = append(m.strs[:i], m.strs[i+1:]...)
			return s, true
		}
	}
	return sysBlock{}, false
}

// storePtr runs one of the three pointer stores on a decoded slot and
// value.
func (m *sysMachine) storePtr(op int) {
	slot, val := m.slot(), m.value()
	switch op {
	case opStorePtr:
		m.call("StorePtr", func() error { m.sys.StorePtr(slot, val); return nil })
	case opStoreGlobalPtr:
		m.call("StoreGlobalPtr", func() error { m.sys.StoreGlobalPtr(slot, val); return nil })
	default:
		m.call("StorePtrDynamic", func() error { m.sys.StorePtrDynamic(slot, val); return nil })
	}
}

// store writes a plain word: a small integer into pointer-free data (an
// object's data word or a live string block), or, at an arbitrary address,
// the word already there, so the store is checked without changing what
// Verify audits.
func (m *sysMachine) store() {
	b := m.arg.next()
	v := regions.Ptr(m.arg.next())
	var a regions.Ptr
	switch b % 3 {
	case 0:
		if len(m.objs) == 0 {
			return
		}
		o := m.objs[int(b>>2)%len(m.objs)]
		if o.size < 4 {
			return
		}
		a = o.p + regions.Ptr(int(m.arg.next())%(o.size/4)*4)
		if o.cell && a == o.p+4 {
			a = o.p
		}
	case 1:
		if len(m.strs) == 0 {
			return
		}
		s := m.strs[int(b>>2)%len(m.strs)]
		a = s.p + regions.Ptr(int(m.arg.next())%((s.size+3)/4)*4)
	default:
		a = m.addr()
		m.call("Store", func() error { m.sys.Store(a, m.sys.Load(a)); return nil })
		return
	}
	m.call("Store", func() error { m.sys.Store(a, v); return nil })
}

// bury moves r from the live regions to the dead handles, drops its
// objects and blocks from the model and returns the objects, and records
// the fault a first probe reports.
func (m *sysMachine) bury(r *regions.Region, migrated bool) []sysObject {
	for i, l := range m.live {
		if l == r {
			m.live = append(m.live[:i], m.live[i+1:]...)
			break
		}
	}
	var gone []sysObject
	kept := m.objs[:0]
	for _, o := range m.objs {
		if o.r == r {
			gone = append(gone, o)
		} else {
			kept = append(kept, o)
		}
	}
	m.objs = kept
	strs := m.strs[:0]
	for _, s := range m.strs {
		if s.r != r {
			strs = append(strs, s)
		}
	}
	m.strs = strs
	freed := m.freed[:0]
	for _, s := range m.freed {
		if s.r != r {
			freed = append(freed, s)
		}
	}
	m.freed = freed
	_, err := m.sys.TryRstrAlloc(r, 8)
	var f *regions.Fault
	if !errors.As(err, &f) {
		m.t.Fatalf("TryRstrAlloc on the dead %v returned %v", r, err)
	}
	m.dead = append(m.dead, sysDead{r: r, migrated: migrated, region: f.Region, addr: f.Addr})
	return gone
}

// probeDead calls every operation that takes a region on dead handle i.
// Each must be refused with the handle's fault — migrated, or deleted or
// detached — naming its region and header address, and change nothing.
func (m *sysMachine) probeDead(i int) {
	d := m.dead[i]
	before, mapped := *m.sys.Counters(), m.sys.MappedBytes()
	want := func(op string, err error) {
		m.t.Helper()
		var f *regions.Fault
		ok := errors.As(err, &f) && f.Region == d.region && f.Addr == d.addr
		if ok && d.migrated {
			ok = f.Kind == regions.FaultMigratedRegion
		} else if ok {
			ok = f.Kind == regions.FaultDeletedRegion || f.Kind == regions.FaultDetachedRegion
		}
		if !ok {
			m.t.Fatalf("%s on the dead region#%d (migrated %v) returned %v", op, d.region, d.migrated, err)
		}
	}
	cln := m.sys.SizeCleanup(8)
	_, err := m.sys.TryRalloc(d.r, 8, cln)
	want("TryRalloc", err)
	_, err = m.sys.TryRarrayAlloc(d.r, 2, 8, cln)
	want("TryRarrayAlloc", err)
	_, err = m.sys.TryRstrAlloc(d.r, 8)
	want("TryRstrAlloc", err)
	want("TryRstrFree", m.sys.TryRstrFree(d.r, d.addr, 8))
	ok, err := m.sys.TryDeleteRegion(d.r)
	want("TryDeleteRegion", err)
	if ok {
		m.t.Fatalf("TryDeleteRegion deleted the dead region#%d", d.region)
	}
	_, err = m.sys.ExportRegion(d.r)
	want("ExportRegion", err)
	want("ContentChecksum", m.call("ContentChecksum", func() error { m.sys.ContentChecksum(d.r); return nil }))
	if m.sys.Exportable(d.r) || m.sys.Referrers(d.r) != nil {
		m.t.Fatalf("the dead region#%d is exportable or has referrers", d.region)
	}
	if after := *m.sys.Counters(); after != before || m.sys.MappedBytes() != mapped {
		m.t.Fatalf("probing the dead region#%d changed the counters or the mapped bytes", d.region)
	}
	if verr := m.sys.Verify(); verr != nil {
		m.t.Fatalf("Verify after probing the dead region#%d: %v", d.region, verr)
	}
}
