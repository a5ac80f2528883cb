package minicc

import (
	"fmt"

	"regions/internal/apps/appkit"
)

// run executes function mainIdx of the compiled module, reading quads and
// globals out of the simulated heap. The generated programs contain only
// bounded loops; the step cap is defensive.
func (c *compiler) run(mainIdx int) int32 {
	sp := c.sp
	module := c.f.Get(sModule)
	meta := c.f.Get(sMeta)
	globals := c.f.Get(sGlobals)

	metaAt := func(idx, field int) int {
		return int(sp.Load(meta + appkit.Ptr(idx*metaEntry+field*4)))
	}
	quad := func(q, w int) int32 {
		return int32(sp.Load(module + appkit.Ptr(q*quadBytes+w*4)))
	}

	frames, regs, pending := c.vm.frames[:0], c.vm.regs[:0], c.vm.args[:0]
	call := func(idx int, args []int32, ret int) {
		if len(args) != metaAt(idx, 2) {
			panic(fmt.Sprintf("minicc vm: arity mismatch for f%d", idx))
		}
		base := len(regs)
		for n := metaAt(idx, 3); n > 0; n-- {
			regs = append(regs, 0)
		}
		copy(regs[base:], args)
		frames = append(frames, vmFrame{regs: base, base: metaAt(idx, 0), ret: ret})
	}

	var result int32
	call(mainIdx, nil, -1)
	for steps := 0; len(frames) > 0; steps++ {
		if steps > 20_000_000 {
			panic("minicc vm: step limit exceeded")
		}
		fr := &frames[len(frames)-1]
		r := regs[fr.regs:] // the top frame's registers
		q := fr.base + fr.pc
		op := quad(q, 0)
		a, b, dst := quad(q, 1), quad(q, 2), quad(q, 3)
		fr.pc++
		switch op {
		case irConst:
			r[dst] = a
		case irMov:
			r[dst] = r[a]
		case irAdd:
			r[dst] = r[a] + r[b]
		case irSub:
			r[dst] = r[a] - r[b]
		case irMul:
			r[dst] = r[a] * r[b]
		case irDiv:
			if r[b] == 0 {
				panic("minicc vm: division by zero")
			}
			r[dst] = r[a] / r[b]
		case irMod:
			if r[b] == 0 {
				panic("minicc vm: modulo by zero")
			}
			r[dst] = r[a] % r[b]
		case irLt:
			r[dst] = b2i(r[a] < r[b])
		case irLe:
			r[dst] = b2i(r[a] <= r[b])
		case irEq:
			r[dst] = b2i(r[a] == r[b])
		case irNe:
			r[dst] = b2i(r[a] != r[b])
		case irNeg:
			r[dst] = -r[a]
		case irJz:
			if r[a] == 0 {
				fr.pc = int(b)
			}
		case irJmp:
			fr.pc = int(b)
		case irParam:
			pending = append(pending, r[a])
		case irCall:
			top := len(pending) - int(b)
			call(int(a), pending[top:], fr.regs+int(dst))
			pending = pending[:top]
		case irRet:
			if fr.ret < 0 {
				result = r[a]
			} else {
				regs[fr.ret] = r[a]
			}
			regs = regs[:fr.regs]
			frames = frames[:len(frames)-1]
		case irLoadG:
			r[dst] = int32(sp.Load(globals + appkit.Ptr(a*4)))
		case irStoreG:
			sp.Store(globals+appkit.Ptr(b*4), uint32(r[a]))
		default:
			panic(fmt.Sprintf("minicc vm: bad opcode %d at quad %d", op, q))
		}
	}
	c.vm.frames, c.vm.regs, c.vm.args = frames, regs, pending
	return result
}

// vmFrame is one activation of the interpreter.
type vmFrame struct {
	regs int // its first register in the register stack
	base int // function-relative pc base (quad offset in module)
	pc   int // function-relative
	ret  int // the caller's destination register in the stack; -1 for main
}

// vmStacks are the interpreter's frame, register and argument stacks,
// kept for the whole run.
type vmStacks struct {
	frames []vmFrame
	regs   []int32
	args   []int32
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
