package mudlle

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/mem"
)

// Heap object layouts (byte offsets).
//
// Symbol (interned, in the file region): +0 next in bucket, +4 value
// (function index + 1, or 0), +8 length, +12 chars.
// AST node: +0 kind, +4/+8/+12 operands (pointers or immediates by kind).
// Cons cell: +0 car, +4 cdr.
// Define record: +0 next, +4 name symbol, +8 parameter list, +12 body.
// Environment entry (function region): +0 next, +4 symbol, +8 slot.
// Code chunk (function region): +0 next, +4 used, +8 bytes.
const (
	symNext, symVal, symLen, symChars = 0, 4, 8, 12

	nKind, nX, nY, nZ = 0, 4, 8, 12
	nodeSize          = 16

	nNum  = 1
	nVar  = 2
	nIf   = 3
	nLet  = 4
	nCall = 5
	nPrim = 6

	envNext, envSym, envSlot = 0, 4, 8

	chNext, chUsed, chBytes = 0, 4, 8
	chunkCap                = 256

	symBuckets = 128
	maxFns     = 256
	moduleCap  = 96 * 1024
	metaEntry  = 12 // code offset, nparams, nslots
)

// compiler carries one compilation's state: the file region (AST, symbols,
// module image) plus the scratch of the function currently being compiled.
type compiler struct {
	e  appkit.RegionEnv
	sp *mem.Space
	f  appkit.Frame

	clnSym, clnNode, clnCons, clnDef, clnEnv, clnChunk, clnPtr appkit.CleanupID

	ast appkit.BoundRegion

	// Function-compile scratch (reset per function).
	fnReg   appkit.BoundRegion
	chunks  []appkit.Ptr // host mirror of the chunk list for patching
	pc      int
	nlocals int

	nfns      int
	moduleOff int

	toks   []token
	pos    int
	ident  []byte            // the lexer's symbol buffer
	idents map[string]string // symbol texts seen this run, interned
	vm     vmStacks

	// noFold disables constant folding (for the differential tests).
	noFold bool
}

// Frame slot layout.
const (
	sSymtab = iota
	sDefines
	sDefTail
	sModule
	sMeta
	sEnv
	sChunks
	sScratch
	numSlots
)

// RunRegion compiles the generated source file scale times, executing the
// resulting byte-code once per compile, and returns the checksum.
func RunRegion(e appkit.RegionEnv, scale int) uint32 {
	src := Source()
	c := &compiler{e: e, sp: e.Space()}
	c.registerCleanups()
	h := uint32(2166136261)
	for i := 0; i < scale; i++ {
		c.f = e.PushFrame(numSlots)
		result, modBytes := c.compileFile(src)
		mix(&h, uint32(result))
		mix(&h, modBytes)
		e.PopFrame()
		e.Safepoint()
	}
	e.Finalize()
	return h
}

func (c *compiler) registerCleanups() {
	e := c.e
	c.clnSym = e.RegisterCleanup("mudlle.sym", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o + symNext))
		return symChars + int(e.Space().Load(o+symLen)+3)&^3
	})
	c.clnNode = e.RegisterCleanup("mudlle.node", func(e appkit.RegionEnv, o appkit.Ptr) int {
		sp := e.Space()
		switch sp.Load(o + nKind) {
		case nVar:
			e.Destroy(sp.Load(o + nX))
		case nIf:
			e.Destroy(sp.Load(o + nX))
			e.Destroy(sp.Load(o + nY))
			e.Destroy(sp.Load(o + nZ))
		case nLet:
			e.Destroy(sp.Load(o + nX))
			e.Destroy(sp.Load(o + nY))
			e.Destroy(sp.Load(o + nZ))
		case nCall:
			e.Destroy(sp.Load(o + nX))
			e.Destroy(sp.Load(o + nY))
		case nPrim:
			e.Destroy(sp.Load(o + nY))
		}
		return nodeSize
	})
	c.clnCons = e.RegisterCleanup("mudlle.cons", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o))
		e.Destroy(e.Space().Load(o + 4))
		return 8
	})
	c.clnDef = e.RegisterCleanup("mudlle.def", func(e appkit.RegionEnv, o appkit.Ptr) int {
		for off := appkit.Ptr(0); off < 16; off += 4 {
			e.Destroy(e.Space().Load(o + off))
		}
		return 16
	})
	c.clnEnv = e.RegisterCleanup("mudlle.env", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o + envNext))
		e.Destroy(e.Space().Load(o + envSym))
		return 12
	})
	c.clnChunk = e.RegisterCleanup("mudlle.chunk", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o + chNext))
		return chBytes + chunkCap
	})
	c.clnPtr = e.RegisterCleanup("mudlle.ptr", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o))
		return 4
	})
}

// --- lexer ------------------------------------------------------------------

type token struct {
	kind byte // '(' ')' 'n' 's'
	num  int32
	text string
}

// lex reads the source out of the heap buffer and tokenizes it, reusing
// the previous file's token slice and symbol buffer. Symbol text is
// interned host-side, so a name seen before costs no Go allocation.
func (c *compiler) lex(text appkit.Ptr, n int) []token {
	sp := c.sp
	if cap(c.toks) < n/2 {
		// Generated programs have over two source bytes per token, so
		// this is the run's one token array; denser input still lexes.
		c.toks = make([]token, 0, n/2)
	}
	if c.idents == nil {
		c.idents = make(map[string]string)
	}
	toks := c.toks[:0]
	i := 0
	read := func(k int) byte { return sp.LoadByte(text + appkit.Ptr(k)) }
	for i < n {
		b := read(i)
		switch {
		case b == ' ' || b == '\n' || b == '\t':
			i++
		case b == '(' || b == ')':
			toks = append(toks, token{kind: b})
			i++
		case b >= '0' && b <= '9':
			v := int32(0)
			for i < n {
				d := read(i)
				if d < '0' || d > '9' {
					break
				}
				v = v*10 + int32(d-'0')
				i++
			}
			toks = append(toks, token{kind: 'n', num: v})
		default:
			start := i
			sb := c.ident[:0]
			for i < n {
				d := read(i)
				if d == ' ' || d == '\n' || d == '\t' || d == '(' || d == ')' {
					break
				}
				sb = append(sb, d)
				i++
			}
			if i == start {
				panic(fmt.Sprintf("mudlle: bad character %q at %d", b, i))
			}
			c.ident = sb
			name, ok := c.idents[string(sb)]
			if !ok {
				name = string(sb)
				c.idents[name] = name
			}
			toks = append(toks, token{kind: 's', text: name})
		}
	}
	return toks
}

// --- symbols ----------------------------------------------------------------

func hashStr(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// intern returns the symbol for name, creating it in the file region.
func (c *compiler) intern(name string) appkit.Ptr {
	sp := c.sp
	table := c.f.Get(sSymtab)
	b := table + appkit.Ptr(hashStr(name)%symBuckets*4)
	for s := sp.Load(b); s != 0; s = sp.Load(s + symNext) {
		if int(sp.Load(s+symLen)) == len(name) && appkit.EqualBytes(sp, s+symChars, len(name), name) {
			return s
		}
	}
	s := c.ast.Alloc(symChars+(len(name)+3)&^3, c.clnSym)
	c.e.StorePtr(s+symNext, sp.Load(b))
	sp.Store(s+symLen, uint32(len(name)))
	appkit.StoreBytes(sp, s+symChars, []byte(name))
	c.e.StorePtr(b, s)
	return s
}

// --- parser -----------------------------------------------------------------

func (c *compiler) peek() token {
	if c.pos >= len(c.toks) {
		return token{kind: 0} // end of input; any expect() will diagnose
	}
	return c.toks[c.pos]
}

func (c *compiler) nextT() token {
	if c.pos >= len(c.toks) {
		panic("mudlle: unexpected end of input")
	}
	t := c.toks[c.pos]
	c.pos++
	return t
}

func (c *compiler) expect(kind byte) token {
	t := c.nextT()
	if t.kind != kind {
		panic(fmt.Sprintf("mudlle: expected %q, got %q %q", kind, t.kind, t.text))
	}
	return t
}

func (c *compiler) newNode(kind uint32) appkit.Ptr {
	n := c.ast.Alloc(nodeSize, c.clnNode)
	c.sp.Store(n+nKind, kind)
	return n
}

// parseExpr builds one AST node in the file region.
func (c *compiler) parseExpr() appkit.Ptr {
	t := c.nextT()
	switch t.kind {
	case 'n':
		n := c.newNode(nNum)
		c.sp.Store(n+nX, uint32(t.num))
		return n
	case 's':
		n := c.newNode(nVar)
		c.e.StorePtr(n+nX, c.intern(t.text))
		return n
	case '(':
		head := c.expect('s').text
		var n appkit.Ptr
		switch head {
		case "if":
			n = c.newNode(nIf)
			c.e.StorePtr(n+nX, c.parseExpr())
			c.e.StorePtr(n+nY, c.parseExpr())
			c.e.StorePtr(n+nZ, c.parseExpr())
		case "let":
			c.expect('(')
			c.expect('(')
			name := c.expect('s').text
			n = c.newNode(nLet)
			c.e.StorePtr(n+nX, c.intern(name))
			c.e.StorePtr(n+nY, c.parseExpr())
			c.expect(')')
			c.expect(')')
			c.e.StorePtr(n+nZ, c.parseExpr())
		case "+", "-", "*", "<":
			ops := map[string]uint32{"+": primAdd, "-": primSub, "*": primMul, "<": primLess}
			n = c.newNode(nPrim)
			c.sp.Store(n+nX, ops[head])
			c.e.StorePtr(n+nY, c.parseArgs())
		default:
			n = c.newNode(nCall)
			c.e.StorePtr(n+nX, c.intern(head))
			c.e.StorePtr(n+nY, c.parseArgs())
		}
		c.expect(')')
		return n
	}
	panic(fmt.Sprintf("mudlle: unexpected token %q", t.kind))
}

// parseArgs builds the argument list (cons cells) up to the closing paren.
func (c *compiler) parseArgs() appkit.Ptr {
	if c.peek().kind == ')' {
		return 0
	}
	// Build in order: the car is parsed first, then the tail.
	cell := c.ast.Alloc(8, c.clnCons)
	c.e.StorePtr(cell, c.parseExpr())
	c.e.StorePtr(cell+4, c.parseArgs())
	return cell
}

// parseDefine parses (define (name params...) body).
func (c *compiler) parseDefine() appkit.Ptr {
	c.expect('(')
	if kw := c.expect('s').text; kw != "define" {
		panic("mudlle: expected define")
	}
	c.expect('(')
	name := c.intern(c.expect('s').text)
	var params appkit.Ptr
	var tail appkit.Ptr
	for c.peek().kind == 's' {
		cell := c.ast.Alloc(8, c.clnCons)
		c.e.StorePtr(cell, c.intern(c.nextT().text))
		if params == 0 {
			params = cell
			c.f.Set(sScratch, params)
		} else {
			c.e.StorePtr(tail+4, cell)
		}
		tail = cell
	}
	c.expect(')')
	def := c.ast.Alloc(16, c.clnDef)
	c.e.StorePtr(def+4, name)
	c.e.StorePtr(def+8, params)
	c.f.Set(sScratch, def)
	c.e.StorePtr(def+12, c.parseExpr())
	c.expect(')')
	c.f.Set(sScratch, 0)
	return def
}

// --- code generation ---------------------------------------------------------

func (c *compiler) emit(bytes ...byte) {
	sp := c.sp
	for _, b := range bytes {
		cur := c.f.Get(sChunks)
		if cur == 0 || sp.Load(cur+chUsed) == chunkCap {
			nc := c.fnReg.Alloc(chBytes+chunkCap, c.clnChunk)
			if cur != 0 {
				// Chunks link newest-first is wrong for replay; keep a
				// host-side ordered mirror and link for cleanup only.
				c.e.StorePtr(nc+chNext, cur)
			}
			c.f.Set(sChunks, nc)
			c.chunks = append(c.chunks, nc)
			cur = nc
		}
		used := sp.Load(cur + chUsed)
		sp.StoreByte(cur+chBytes+appkit.Ptr(used), b)
		sp.Store(cur+chUsed, used+1)
		c.pc++
	}
}

// patch16 rewrites a previously emitted 2-byte big-endian target.
func (c *compiler) patch16(at, target int) {
	chunk := c.chunks[at/chunkCap]
	off := at % chunkCap
	c.sp.StoreByte(chunk+chBytes+appkit.Ptr(off), byte(target>>8))
	if off+1 == chunkCap {
		chunk = c.chunks[at/chunkCap+1]
		off = -1
	}
	c.sp.StoreByte(chunk+chBytes+appkit.Ptr(off+1), byte(target))
}

// lookup resolves a variable in the function's environment list.
func (c *compiler) lookup(sym appkit.Ptr) int {
	sp := c.sp
	for e := c.f.Get(sEnv); e != 0; e = sp.Load(e + envNext) {
		if sp.Load(e+envSym) == sym {
			return int(sp.Load(e + envSlot))
		}
	}
	panic("mudlle: unbound variable " + c.symName(sym))
}

func (c *compiler) symName(sym appkit.Ptr) string {
	return string(appkit.LoadBytes(c.sp, sym+symChars, int(c.sp.Load(sym+symLen))))
}

// bind pushes a new environment entry in the function region.
func (c *compiler) bind(sym appkit.Ptr, slot int) {
	e := c.fnReg.Alloc(12, c.clnEnv)
	c.e.StorePtr(e+envNext, c.f.Get(sEnv))
	c.e.StorePtr(e+envSym, sym) // cross-region pointer into the file region
	c.sp.Store(e+envSlot, uint32(slot))
	c.f.Set(sEnv, e)
}

// gen emits code for an expression node.
func (c *compiler) gen(n appkit.Ptr) {
	sp := c.sp
	switch sp.Load(n + nKind) {
	case nNum:
		v := sp.Load(n + nX)
		c.emit(opPushConst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case nVar:
		c.emit(opPushLocal, byte(c.lookup(sp.Load(n+nX))))
	case nPrim:
		argc := 0
		for a := sp.Load(n + nY); a != 0; a = sp.Load(a + 4) {
			c.gen(sp.Load(a))
			argc++
		}
		c.emit(opPrim, byte(sp.Load(n+nX)), byte(argc))
	case nCall:
		sym := sp.Load(n + nX)
		idx := int(sp.Load(sym+symVal)) - 1
		if idx < 0 {
			panic("mudlle: call to undefined function " + c.symName(sym))
		}
		argc := 0
		for a := sp.Load(n + nY); a != 0; a = sp.Load(a + 4) {
			c.gen(sp.Load(a))
			argc++
		}
		c.emit(opCall, byte(idx), byte(argc))
	case nIf:
		c.gen(sp.Load(n + nX))
		c.emit(opJmpFalse, 0, 0)
		p1 := c.pc - 2
		c.gen(sp.Load(n + nY))
		c.emit(opJmp, 0, 0)
		p2 := c.pc - 2
		c.patch16(p1, c.pc)
		c.gen(sp.Load(n + nZ))
		c.patch16(p2, c.pc)
	case nLet:
		c.gen(sp.Load(n + nY))
		slot := c.nlocals
		c.nlocals++
		c.emit(opStoreLocal, byte(slot))
		saved := c.f.Get(sEnv)
		c.bind(sp.Load(n+nX), slot)
		c.gen(sp.Load(n + nZ))
		c.f.Set(sEnv, saved)
	default:
		panic("mudlle: bad node kind")
	}
}

// compileFn generates one function's code in a fresh function region, then
// copies it into the module image and deletes the region.
func (c *compiler) compileFn(def appkit.Ptr) {
	sp := c.sp
	c.fnReg = appkit.NewBound(c.e)
	c.chunks = c.chunks[:0]
	c.pc = 0
	c.f.Set(sEnv, 0)
	c.f.Set(sChunks, 0)

	name := sp.Load(def + 4)
	idx := c.nfns
	if idx == maxFns {
		panic("mudlle: too many functions")
	}
	c.nfns++
	sp.Store(name+symVal, uint32(idx+1))

	if !c.noFold {
		c.e.StorePtr(def+12, c.fold(sp.Load(def+12)))
	}

	nparams := 0
	for p := sp.Load(def + 8); p != 0; p = sp.Load(p + 4) {
		c.bind(sp.Load(p), nparams)
		nparams++
	}
	c.nlocals = nparams
	c.gen(sp.Load(def + 12))
	c.emit(opRet)

	// Copy the finished code into the module image.
	module := c.f.Get(sModule)
	meta := c.f.Get(sMeta)
	if c.moduleOff+c.pc > moduleCap {
		panic("mudlle: module image overflow")
	}
	written := 0
	for _, chunk := range c.chunks {
		used := int(sp.Load(chunk + chUsed))
		for i := 0; i < used; i++ {
			sp.StoreByte(module+appkit.Ptr(c.moduleOff+written), sp.LoadByte(chunk+chBytes+appkit.Ptr(i)))
			written++
		}
	}
	sp.Store(meta+appkit.Ptr(idx*metaEntry), uint32(c.moduleOff))
	sp.Store(meta+appkit.Ptr(idx*metaEntry+4), uint32(nparams))
	sp.Store(meta+appkit.Ptr(idx*metaEntry+8), uint32(c.nlocals))
	c.moduleOff += c.pc

	// The function's scratch dies all at once.
	c.f.Set(sEnv, 0)
	c.f.Set(sChunks, 0)
	if !c.fnReg.Delete() {
		panic("mudlle: function region not deletable")
	}
	c.fnReg = appkit.BoundRegion{}
}

// compileFile runs the whole pipeline for one compilation of src and
// returns the VM result of main plus the module size.
func (c *compiler) compileFile(src []byte) (int32, uint32) {
	e, sp := c.e, c.sp
	c.ast = appkit.NewBound(e)
	c.nfns = 0
	c.moduleOff = 0

	// The source text lives in the file region, like the original's input
	// buffer; the lexer reads it back out of the heap.
	text := c.ast.AllocStr(len(src))
	appkit.StoreBytes(sp, text, src)
	c.toks = c.lex(text, len(src))
	c.pos = 0

	c.f.Set(sSymtab, c.ast.AllocArray(symBuckets, 4, c.clnPtr))
	c.f.Set(sModule, c.ast.AllocStr(moduleCap))
	meta := c.ast.AllocStr(maxFns * metaEntry)
	c.f.Set(sMeta, meta)

	mainIdx := -1
	for c.pos < len(c.toks) {
		def := c.parseDefine()
		c.f.Set(sDefines, def) // root the newest define; older ones are compiled already
		c.compileFn(def)
		if sym := sp.Load(def + 4); appkit.EqualBytes(sp, sym+symChars, int(sp.Load(sym+symLen)), "main") {
			mainIdx = c.nfns - 1
		}
		e.Safepoint()
	}
	if mainIdx < 0 {
		panic("mudlle: no main")
	}
	result := c.run(mainIdx)

	var modHash uint32 = 2166136261
	for i := 0; i < c.moduleOff; i++ {
		modHash = (modHash ^ uint32(sp.LoadByte(c.f.Get(sModule)+appkit.Ptr(i)))) * 16777619
	}

	for i := 0; i < numSlots; i++ {
		c.f.Set(i, 0)
	}
	if !c.ast.Delete() {
		panic("mudlle: file region not deletable")
	}
	c.ast = appkit.BoundRegion{}
	return result, modHash
}
