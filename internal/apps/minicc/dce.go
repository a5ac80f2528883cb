package minicc

import "regions/internal/apps/appkit"

// Dead-code elimination over one function's quads, run after generation
// and before the copy into the module image. A quad is dead when it has no
// side effect (constants, moves, negation, arithmetic, comparisons, global
// loads) and its destination register is never read anywhere in the
// function — a flow-insensitive criterion that is sound and, with the
// generated programs' unused locals, productive. Removing a quad renumbers
// the rest, so branch targets are remapped; execution falls through to the
// next surviving quad, which preserves semantics because removed quads are
// effect-free.

type quad struct {
	op, a, b, dst int32
}

// pureOps have no side effects beyond writing dst.
func pureOp(op int32) bool {
	switch op {
	case irConst, irMov, irNeg, irAdd, irSub, irMul, irDiv, irMod,
		irLt, irLe, irEq, irNe, irLoadG:
		return true
	}
	return false
}

// readsOf appends the registers a quad reads to dst.
func (q quad) readsOf(out []int32) []int32 {
	switch q.op {
	case irMov, irNeg, irJz, irParam, irRet, irStoreG:
		out = append(out, q.a)
	case irAdd, irSub, irMul, irDiv, irMod, irLt, irLe, irEq, irNe:
		out = append(out, q.a, q.b)
	}
	return out
}

// dceScratch is eliminateDead's host scratch, kept for the whole run.
type dceScratch struct {
	quads  []quad
	live   []bool
	before []int32
	read   map[int32]bool
}

// eliminateDead compacts the current function's quad chunks in place and
// updates c.nq. It returns the number of removed quads.
func (c *compiler) eliminateDead() int {
	if c.noDCE {
		return 0
	}
	sp := c.sp
	d := &c.dce

	// Read the quads out of the chunk list (compiler work: heap loads).
	quads := d.quads[:0]
	for i := 0; i < c.nq; i++ {
		chunk := c.chunks[i/quadsPerChunk]
		base := chunk + qcQuads + appkit.Ptr(i%quadsPerChunk*quadBytes)
		quads = append(quads, quad{
			op:  int32(sp.Load(base)),
			a:   int32(sp.Load(base + 4)),
			b:   int32(sp.Load(base + 8)),
			dst: int32(sp.Load(base + 12)),
		})
	}
	d.quads = quads

	// Fixpoint: drop pure quads whose destination is never read.
	live := d.live[:0]
	for range quads {
		live = append(live, true)
	}
	d.live = live
	// Division and modulo may trap at run time; folding already proved
	// constant divisors, but a variable divisor could be zero, so those
	// stay even when dead — matching the conservative choice a C compiler
	// must make for trapping instructions.
	removable := func(q quad) bool {
		return pureOp(q.op) && q.op != irDiv && q.op != irMod
	}
	if d.read == nil {
		d.read = make(map[int32]bool)
	}
	read := d.read
	removed := 0
	for changed := true; changed; {
		changed = false
		clear(read)
		var regs [2]int32
		for i, q := range quads {
			if !live[i] {
				continue
			}
			for _, r := range q.readsOf(regs[:0]) {
				read[r] = true
			}
		}
		for i, q := range quads {
			if live[i] && removable(q) && !read[q.dst] {
				live[i] = false
				removed++
				changed = true
			}
		}
	}
	if removed == 0 {
		return 0
	}

	// Remap branch targets: new index = survivors before the old target.
	before := append(d.before[:0], 0)
	for i, l := range live {
		before = append(before, before[i])
		if l {
			before[i+1]++
		}
	}
	d.before = before
	out := quads[:0] // compacted in place: survivor k lands at k <= its index
	for i, q := range quads {
		if !live[i] {
			continue
		}
		if q.op == irJz || q.op == irJmp {
			q.b = before[q.b]
		}
		out = append(out, q)
	}

	// Write the compacted quads back into the chunks.
	for i, q := range out {
		chunk := c.chunks[i/quadsPerChunk]
		base := chunk + qcQuads + appkit.Ptr(i%quadsPerChunk*quadBytes)
		sp.Store(base, uint32(q.op))
		sp.Store(base+4, uint32(q.a))
		sp.Store(base+8, uint32(q.b))
		sp.Store(base+12, uint32(q.dst))
	}
	// Fix the chunk fill counts so the module copy stops at the new end.
	for i, chunk := range c.chunks {
		used := len(out) - i*quadsPerChunk
		if used < 0 {
			used = 0
		}
		if used > quadsPerChunk {
			used = quadsPerChunk
		}
		sp.Store(chunk+qcUsed, uint32(used))
	}
	c.nq = len(out)
	return removed
}
