package mudlle

import (
	"fmt"

	"regions/internal/apps/appkit"
)

// run executes the compiled module's function mainIdx on a small stack
// machine, reading the byte-code out of the simulated heap. The generated
// programs are loop- and recursion-free, so execution always terminates;
// the step cap is a defensive bound.
func (c *compiler) run(mainIdx int) int32 {
	sp := c.sp
	module := c.f.Get(sModule)
	meta := c.f.Get(sMeta)

	metaAt := func(idx, field int) int {
		return int(sp.Load(meta + appkit.Ptr(idx*metaEntry+field*4)))
	}
	code := func(pc int) byte { return sp.LoadByte(module + appkit.Ptr(pc)) }

	stack, frames := c.vm.stack[:0], c.vm.frames[:0]

	push := func(v int32) { stack = append(stack, v) }
	pop := func() int32 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	enter := func(idx, argc, retPC int) int {
		if argc != metaAt(idx, 1) {
			panic(fmt.Sprintf("mudlle vm: arity mismatch calling f%d: %d != %d",
				idx, argc, metaAt(idx, 1)))
		}
		base := len(stack) - argc
		for len(stack) < base+metaAt(idx, 2) {
			push(0)
		}
		start := metaAt(idx, 0)
		frames = append(frames, vmFrame{retPC: retPC, base: base, start: start})
		return start
	}

	pc := enter(mainIdx, 0, -1)
	for steps := 0; ; steps++ {
		if steps > 10_000_000 {
			panic("mudlle vm: step limit exceeded")
		}
		op := code(pc)
		pc++
		switch op {
		case opPushConst:
			v := uint32(code(pc))<<24 | uint32(code(pc+1))<<16 | uint32(code(pc+2))<<8 | uint32(code(pc+3))
			pc += 4
			push(int32(v))
		case opPushLocal:
			slot := int(code(pc))
			pc++
			push(stack[frames[len(frames)-1].base+slot])
		case opStoreLocal:
			slot := int(code(pc))
			pc++
			stack[frames[len(frames)-1].base+slot] = pop()
		case opPrim:
			prim := code(pc)
			argc := int(code(pc + 1))
			pc += 2
			if argc != 2 {
				panic("mudlle vm: non-binary primitive")
			}
			b, a := pop(), pop()
			switch prim {
			case primAdd:
				push(a + b)
			case primSub:
				push(a - b)
			case primMul:
				push(a * b)
			case primLess:
				if a < b {
					push(1)
				} else {
					push(0)
				}
			default:
				panic("mudlle vm: bad primitive")
			}
		case opCall:
			idx := int(code(pc))
			argc := int(code(pc + 1))
			pc = enter(idx, argc, pc+2)
		case opJmpFalse:
			target := int(code(pc))<<8 | int(code(pc+1))
			pc += 2
			if pop() == 0 {
				pc = frames[len(frames)-1].start + target
			}
		case opJmp:
			pc = frames[len(frames)-1].start + (int(code(pc))<<8 | int(code(pc+1)))
		case opRet:
			v := pop()
			fr := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			stack = stack[:fr.base]
			push(v)
			if fr.retPC < 0 {
				c.vm.stack, c.vm.frames = stack, frames
				return v
			}
			pc = fr.retPC
		default:
			panic(fmt.Sprintf("mudlle vm: bad opcode %d at %d", op, pc-1))
		}
	}
}

// vmFrame is one activation. Jump targets are function-relative, so each
// frame remembers its function's code start.
type vmFrame struct{ retPC, base, start int }

// vmStacks are the machine's value and frame stacks, kept for the whole
// run.
type vmStacks struct {
	stack  []int32
	frames []vmFrame
}
