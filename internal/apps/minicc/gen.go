package minicc

import (
	"fmt"

	"regions/internal/apps/appkit"
)

// --- checking pass -----------------------------------------------------------

// checkExpr validates names and arities; it returns the node count so the
// pass does real work over the whole tree, like lcc's semantic pass.
func (c *compiler) checkExpr(n appkit.Ptr) int {
	sp := c.sp
	switch sp.Load(n+aKind) & 0xff {
	case eNum:
		return 1
	case eVar:
		name := sp.Load(n + aA)
		kind, _, _, ok := c.lookup(name)
		if !ok || kind == kFunc {
			panic("minicc: undeclared variable " + c.nameStr(name))
		}
		return 1
	case eNeg:
		return 1 + c.checkExpr(sp.Load(n+aA))
	case eBin:
		return 1 + c.checkExpr(sp.Load(n+aA)) + c.checkExpr(sp.Load(n+aB))
	case eCall:
		name := sp.Load(n + aA)
		kind, _, arity, ok := c.lookup(name)
		if !ok || kind != kFunc {
			panic("minicc: call to undefined function " + c.nameStr(name))
		}
		count, argc := 1, 0
		for a := sp.Load(n + aB); a != 0; a = sp.Load(a + 4) {
			count += c.checkExpr(sp.Load(a))
			argc++
		}
		if argc != arity {
			panic(fmt.Sprintf("minicc: %s called with %d args, wants %d",
				c.nameStr(name), argc, arity))
		}
		return count
	}
	panic("minicc: bad expression node")
}

func (c *compiler) checkStmt(n appkit.Ptr) int {
	sp := c.sp
	switch sp.Load(n+aKind) & 0xff {
	case sBlock:
		count := 1
		for s := sp.Load(n + aA); s != 0; s = sp.Load(s + 4) {
			count += c.checkStmt(sp.Load(s))
		}
		return count
	case sDecl:
		count := 1 + c.checkExpr(sp.Load(n+aB))
		// The declaration is visible to subsequent statements; bind a
		// checking-time entry (register assigned later by codegen).
		c.bind(false, sp.Load(n+aA), kLocalVar, -1, 0)
		return count
	case sAssign:
		name := sp.Load(n + aA)
		if kind, _, _, ok := c.lookup(name); !ok || kind == kFunc {
			panic("minicc: assignment to undeclared " + c.nameStr(name))
		}
		return 1 + c.checkExpr(sp.Load(n+aB))
	case sIf:
		count := 1 + c.checkExpr(sp.Load(n+aA)) + c.checkStmt(sp.Load(n+aB))
		if e := sp.Load(n + aC); e != 0 {
			count += c.checkStmt(e)
		}
		return count
	case sWhile:
		return 1 + c.checkExpr(sp.Load(n+aA)) + c.checkStmt(sp.Load(n+aB))
	case sRet:
		return 1 + c.checkExpr(sp.Load(n+aA))
	}
	panic("minicc: bad statement node")
}

// --- code generation ----------------------------------------------------------

func (c *compiler) newReg() int {
	r := c.nregs
	c.nregs++
	return r
}

// emit appends one quad to the current function's chunk list and returns
// its function-relative index.
func (c *compiler) emit(op, a, b, dst int) int {
	sp := c.sp
	cur := c.f.Get(sChunks)
	if cur == 0 || sp.Load(cur+qcUsed) == quadsPerChunk {
		nc := c.work.Alloc(qcQuads+quadsPerChunk*quadBytes, c.clnChunk)
		if cur != 0 {
			c.e.StorePtr(nc+qcNext, cur) // for cleanup; order kept host-side
		}
		c.f.Set(sChunks, nc)
		c.chunks = append(c.chunks, nc)
		cur = nc
	}
	used := sp.Load(cur + qcUsed)
	q := cur + qcQuads + appkit.Ptr(used*quadBytes)
	sp.Store(q, uint32(op))
	sp.Store(q+4, uint32(a))
	sp.Store(q+8, uint32(b))
	sp.Store(q+12, uint32(dst))
	sp.Store(cur+qcUsed, used+1)
	c.nq++
	return c.nq - 1
}

// patchB rewrites the b field of quad idx (function-relative).
func (c *compiler) patchB(idx, target int) {
	chunk := c.chunks[idx/quadsPerChunk]
	q := chunk + qcQuads + appkit.Ptr(idx%quadsPerChunk*quadBytes)
	c.sp.Store(q+8, uint32(target))
}

// genExpr emits code for an expression and returns the result register.
func (c *compiler) genExpr(n appkit.Ptr) int {
	sp := c.sp
	switch sp.Load(n+aKind) & 0xff {
	case eNum:
		r := c.newReg()
		c.emit(irConst, int(int32(sp.Load(n+aA))), 0, r)
		return r
	case eVar:
		name := sp.Load(n + aA)
		kind, idx, _, _ := c.lookup(name)
		if kind == kLocalVar {
			return idx
		}
		r := c.newReg()
		c.emit(irLoadG, idx, 0, r)
		return r
	case eNeg:
		a := c.genExpr(sp.Load(n + aA))
		r := c.newReg()
		c.emit(irNeg, a, 0, r)
		return r
	case eBin:
		op := int(sp.Load(n+aKind) >> 8)
		a := c.genExpr(sp.Load(n + aA))
		b := c.genExpr(sp.Load(n + aB))
		r := c.newReg()
		c.emit(op, a, b, r)
		return r
	case eCall:
		name := sp.Load(n + aA)
		_, idx, _, _ := c.lookup(name)
		top := len(c.argRegs)
		argc := 0
		for a := sp.Load(n + aB); a != 0; a = sp.Load(a + 4) {
			r := c.genExpr(sp.Load(a))
			c.argRegs = append(c.argRegs, r)
			argc++
		}
		for _, r := range c.argRegs[top:] {
			c.emit(irParam, r, 0, 0)
		}
		c.argRegs = c.argRegs[:top]
		r := c.newReg()
		c.emit(irCall, idx, argc, r)
		return r
	}
	panic("minicc: bad expression node")
}

func (c *compiler) genStmt(n appkit.Ptr) {
	sp := c.sp
	switch sp.Load(n+aKind) & 0xff {
	case sBlock:
		for s := sp.Load(n + aA); s != 0; s = sp.Load(s + 4) {
			c.genStmt(sp.Load(s))
		}
	case sDecl:
		r := c.genExpr(sp.Load(n + aB))
		home := c.newReg()
		c.emit(irMov, r, 0, home)
		c.bind(false, sp.Load(n+aA), kLocalVar, home, 0)
	case sAssign:
		name := sp.Load(n + aA)
		kind, idx, _, _ := c.lookup(name)
		r := c.genExpr(sp.Load(n + aB))
		if kind == kLocalVar {
			c.emit(irMov, r, 0, idx)
		} else {
			c.emit(irStoreG, r, idx, 0)
		}
	case sIf:
		cond := c.genExpr(sp.Load(n + aA))
		jz := c.emit(irJz, cond, 0, 0)
		c.genStmt(sp.Load(n + aB))
		if e := sp.Load(n + aC); e != 0 {
			jend := c.emit(irJmp, 0, 0, 0)
			c.patchB(jz, c.nq)
			c.genStmt(e)
			c.patchB(jend, c.nq)
		} else {
			c.patchB(jz, c.nq)
		}
	case sWhile:
		top := c.nq
		cond := c.genExpr(sp.Load(n + aA))
		jz := c.emit(irJz, cond, 0, 0)
		c.genStmt(sp.Load(n + aB))
		c.emit(irJmp, 0, top, 0)
		c.patchB(jz, c.nq)
	case sRet:
		r := c.genExpr(sp.Load(n + aA))
		c.emit(irRet, r, 0, 0)
	default:
		panic("minicc: bad statement node")
	}
}

// compileFn checks and generates one function, copies its quads into the
// module image, and registers its metadata.
func (c *compiler) compileFn(fn appkit.Ptr) {
	sp := c.sp
	name := sp.Load(fn + aA)
	idx := c.nfns
	if idx == maxFns {
		panic("minicc: too many functions")
	}
	c.nfns++

	// Count parameters and declare the function before its body, so
	// earlier-defined functions are callable (ours call only earlier ones).
	nparams := 0
	for p := sp.Load(fn + aB); p != 0; p = sp.Load(p + 4) {
		nparams++
	}
	c.bind(true, name, kFunc, idx, nparams)

	// Checking pass: parameters then body, in a scope discarded afterwards.
	c.f.Set(sEnv, 0)
	for p := sp.Load(fn + aB); p != 0; p = sp.Load(p + 4) {
		c.bind(false, sp.Load(p), kLocalVar, -1, 0)
	}
	c.checkStmt(sp.Load(fn + aC))

	// Optimization pass: constant folding over the checked AST.
	if !c.noFold {
		c.foldStmt(sp.Load(fn + aC))
	}

	// Generation pass, in a fresh scope with real registers.
	c.f.Set(sEnv, 0)
	c.f.Set(sChunks, 0)
	c.chunks = c.chunks[:0]
	c.nq = 0
	c.nregs = 0
	for p := sp.Load(fn + aB); p != 0; p = sp.Load(p + 4) {
		c.bind(false, sp.Load(p), kLocalVar, c.newReg(), 0)
	}
	c.genStmt(sp.Load(fn + aC))
	// Defensive epilogue: functions whose body can fall through return 0.
	zero := c.newReg()
	c.emit(irConst, 0, 0, zero)
	c.emit(irRet, zero, 0, 0)

	// Optimization pass: dead-code elimination over the finished quads.
	c.eliminateDead()

	// Copy the quads into the module image.
	module := c.f.Get(sModule)
	meta := c.f.Get(sMeta)
	if c.quadOff+c.nq > maxQuads {
		panic("minicc: module overflow")
	}
	written := 0
	for _, chunk := range c.chunks {
		used := int(sp.Load(chunk + qcUsed))
		for i := 0; i < used; i++ {
			src := chunk + qcQuads + appkit.Ptr(i*quadBytes)
			dst := module + appkit.Ptr((c.quadOff+written)*quadBytes)
			for w := appkit.Ptr(0); w < quadBytes; w += 4 {
				sp.Store(dst+w, sp.Load(src+w))
			}
			written++
		}
	}
	sp.Store(meta+appkit.Ptr(idx*metaEntry), uint32(c.quadOff))
	sp.Store(meta+appkit.Ptr(idx*metaEntry+4), uint32(c.nq))
	sp.Store(meta+appkit.Ptr(idx*metaEntry+8), uint32(nparams))
	sp.Store(meta+appkit.Ptr(idx*metaEntry+12), uint32(c.nregs))
	c.quadOff += c.nq
	c.f.Set(sEnv, 0)
	c.f.Set(sChunks, 0)
}

// rotateWork starts a new working region once enough statements have been
// compiled — the paper's "region for every hundred statements".
func (c *compiler) rotateWork() {
	if c.stmts < rotateStmts {
		return
	}
	c.stmts = 0
	old := c.work
	c.work = appkit.NewBound(c.e)
	if !old.Delete() {
		panic("minicc: working region not deletable")
	}
}

// compileFile compiles src once: returns main's result and the module hash.
func (c *compiler) compileFile(src []byte) (int32, uint32) {
	e, sp := c.e, c.sp
	c.file = appkit.NewBound(e)
	c.work = appkit.NewBound(e)
	c.nfns = 0
	c.quadOff = 0
	c.stmts = 0

	text := c.file.AllocStr(len(src))
	appkit.StoreBytes(sp, text, src)
	c.toks = c.lex(text, len(src))
	c.pos = 0

	c.f.Set(sNames, c.file.AllocArray(nameBuckets, 4, c.clnPtr))
	globals := c.file.AllocStr(nGlobals * 4)
	for i := 0; i < nGlobals; i++ {
		sp.Store(globals+appkit.Ptr(i*4), 0)
	}
	c.f.Set(sGlobals, globals)
	c.f.Set(sModule, c.file.AllocStr(maxQuads*quadBytes))
	c.f.Set(sMeta, c.file.AllocStr(maxFns*metaEntry))

	mainIdx := -1
	for c.pos < len(c.toks) {
		fn, isFn := c.parseTop()
		if isFn {
			c.f.Set(sFn, fn)
			c.compileFn(fn)
			if name := sp.Load(fn + aA); appkit.EqualBytes(sp, name+nmChars, int(sp.Load(name+nmLen)), "main") {
				mainIdx = c.nfns - 1
			}
			c.f.Set(sFn, 0)
			c.rotateWork()
		}
		e.Safepoint()
	}
	if mainIdx < 0 {
		panic("minicc: no main")
	}
	result := c.run(mainIdx)
	if c.asmOut != nil {
		*c.asmOut = c.EmitAsm()
		c.asmMain = mainIdx
	}

	var modHash uint32 = 2166136261
	module := c.f.Get(sModule)
	for i := 0; i < c.quadOff*quadBytes/4; i++ {
		mix(&modHash, sp.Load(module+appkit.Ptr(i*4)))
	}
	for i := 0; i < nGlobals; i++ {
		mix(&modHash, sp.Load(globals+appkit.Ptr(i*4)))
	}

	for i := 0; i < numSlots; i++ {
		c.f.Set(i, 0)
	}
	if !c.work.Delete() {
		panic("minicc: working region not deletable")
	}
	if !c.file.Delete() {
		panic("minicc: file region not deletable")
	}
	return result, modHash
}
