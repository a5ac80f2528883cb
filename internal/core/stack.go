package core

import (
	"fmt"

	"regions/internal/stats"
	"regions/internal/trace"
)

// Frame is one shadow-stack frame: the set of live region-pointer local
// variables of one activation, the information the paper's modified lcc
// records at each call site (Section 4.2.3). A frame starts unscanned; a
// scanned frame's slots are reflected in region reference counts.
type Frame struct {
	rt      *Runtime
	slots   []Ptr
	scanned bool
}

// stack is the shadow stack with its high-water mark. frames[:hwm] are
// scanned (their slots are counted in region reference counts); frames[hwm:]
// are not. The paper's invariant (*) — at least one frame below the
// high-water mark — appears here as "the active frame is never scanned",
// so writes to local variables never update reference counts.
type stack struct {
	rt     *Runtime
	frames []*Frame
	hwm    int
	pool   []*Frame
}

// PushFrame enters a new activation with n region-pointer slots, all nil.
// Frame maintenance is local bookkeeping and costs no simulated cycles, like
// ordinary register/stack traffic in the paper's base time. A negative n
// panics with a FaultBadArgument *Fault before the stack changes.
func (rt *Runtime) PushFrame(n int) *Frame {
	if n < 0 {
		panic(rt.fault(FaultBadArgument, 0, -1, fmt.Sprintf("pushframe: %d slots", n), nil))
	}
	s := &rt.stack
	var f *Frame
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
		f = &Frame{rt: rt, slots: make([]Ptr, n)}
	}
	f.scanned = false
	s.frames = append(s.frames, f)
	return f
}

// PopFrame leaves the innermost activation. If control thereby returns to a
// scanned frame, that frame is unscanned — the paper's hijacked return
// address jumping to the unscan function (Section 4.2.3).
func (rt *Runtime) PopFrame() {
	s := &rt.stack
	if len(s.frames) == 0 {
		panic(rt.fault(FaultStackUnderflow, 0, -1,
			"PopFrame on empty shadow stack", nil))
	}
	f := s.frames[len(s.frames)-1]
	if rt.safe && rt.opts.EagerLocals {
		// Eager ablation: the dying frame's counted references drop here.
		old := rt.space.SetMode(stats.ModeRC)
		s.countFrame(f, -1)
		rt.space.SetMode(old)
	}
	if f.scanned {
		// Defensive: the active frame is normally never scanned.
		s.unscan(f)
	}
	s.frames = s.frames[:len(s.frames)-1]
	if s.hwm > len(s.frames) {
		s.hwm = len(s.frames)
	}
	if n := len(s.frames); n > 0 {
		if top := s.frames[n-1]; top.scanned {
			s.unscan(top)
			s.hwm = n - 1
		}
	}
	f.slots = f.slots[:0]
	s.pool = append(s.pool, f)
}

// Depth returns the current shadow-stack depth (for tests and diagnostics).
func (rt *Runtime) Depth() int { return len(rt.stack.frames) }

// Get returns the region pointer in slot i. Here and in Set, a slot
// outside the frame (a popped frame has none) panics with a
// FaultBadArgument *Fault before anything is charged.
func (f *Frame) Get(i int) Ptr {
	if uint(i) >= uint(len(f.slots)) {
		f.badSlot("get", i)
	}
	return f.slots[i]
}

// badSlot raises the fault for an access to slot i outside f.
func (f *Frame) badSlot(op string, i int) {
	panic(f.rt.fault(FaultBadArgument, 0, -1,
		fmt.Sprintf("frame %s: slot %d outside a frame of %d", op, i, len(f.slots)), nil))
}

// Set stores a region pointer in slot i. Writes to an unscanned frame are
// free, which is the point of the deferred scheme; writes to a scanned frame
// (possible only through misuse, since the active frame is never scanned)
// pay a reference-count update. Under the EagerLocals ablation every write
// pays the update, which is precisely the overhead the paper's deferred
// scheme avoids.
func (f *Frame) Set(i int, p Ptr) {
	if uint(i) >= uint(len(f.slots)) {
		f.badSlot("set", i)
	}
	rt := f.rt
	if rt.safe && (f.scanned || rt.opts.EagerLocals) {
		old := rt.space.SetMode(stats.ModeRC)
		rt.charge(stats.ModeRC, globalWriteExtra)
		if r := rt.RegionOf(f.slots[i]); r != nil {
			rt.rcDec(r)
		}
		if r := rt.RegionOf(p); r != nil {
			rt.rcInc(r)
		}
		rt.space.SetMode(old)
	}
	f.slots[i] = p
}

// Len returns the number of slots in the frame.
func (f *Frame) Len() int { return len(f.slots) }

// countFrame adds dir (+1/-1) to the reference count of every region
// referenced from f's slots.
func (s *stack) countFrame(f *Frame, dir int) {
	rt := s.rt
	for _, p := range f.slots {
		rt.charge(stats.ModeScan, 1)
		if r := rt.RegionOf(p); r != nil {
			if dir > 0 {
				rt.rcInc(r)
			} else {
				rt.rcDec(r)
			}
		}
	}
}

// scanForDelete performs the deleteregion-time stack scan (Section 4.2.1):
// every unscanned frame except the active one is scanned — its slots are
// added to region reference counts — and the high-water mark moves so that
// only the active frame remains unscanned. The active frame plays the role
// of the paper's deleteregion frame, which is not itself scanned.
func (s *stack) scanForDelete() {
	rt := s.rt
	old := rt.space.SetMode(stats.ModeScan)
	defer rt.space.SetMode(old)
	for i := s.hwm; i < len(s.frames)-1; i++ {
		f := s.frames[i]
		rt.charge(stats.ModeScan, 4)
		rt.c.FramesScanned++
		rt.c.SlotsScanned += uint64(len(f.slots))
		s.countFrame(f, +1)
		f.scanned = true
		if rt.tracer != nil {
			rt.tracer.Emit(trace.Event{Kind: trace.KindStackScan,
				Region: -1, Size: int32(i), Aux: int32(len(f.slots))})
		}
	}
	if s.hwm < len(s.frames)-1 {
		s.hwm = len(s.frames) - 1
	}
}

// unscan removes a scanned frame's contributions from region reference
// counts (the paper's unscan function).
func (s *stack) unscan(f *Frame) {
	rt := s.rt
	old := rt.space.SetMode(stats.ModeScan)
	defer rt.space.SetMode(old)
	rt.charge(stats.ModeScan, 4)
	rt.c.FramesUnscanned++
	s.countFrame(f, -1)
	f.scanned = false
	if rt.tracer != nil {
		rt.tracer.Emit(trace.Event{Kind: trace.KindStackUnscan,
			Region: -1, Aux: int32(len(f.slots))})
	}
}
