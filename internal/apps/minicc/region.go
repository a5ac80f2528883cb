package minicc

import (
	"fmt"
	"strings"

	"regions/internal/apps/appkit"
	"regions/internal/mem"
)

// Heap object layouts (byte offsets).
//
// Interned name (file region): +0 next in bucket, +4 length, +8 chars.
// Environment entry: +0 next, +4 name, +8 kind, +12 index, +16 arity.
// AST node: +0 kind (low byte; binary nodes carry the operator in the
// second byte), +4/+8/+12 operands. Cons cell: +0 car, +4 cdr.
// Quad chunk: +0 next, +4 quads used, +8 quads (16 bytes each).
const (
	nmNext, nmLen, nmChars = 0, 4, 8

	enNext, enName, enKind, enIdx, enArity = 0, 4, 8, 12, 16
	envEntrySize                           = 20

	kGlobalVar = 1
	kLocalVar  = 2
	kFunc      = 3

	aKind, aA, aB, aC = 0, 4, 8, 12
	nodeSize          = 16

	eNum    = 1
	eVar    = 2
	eBin    = 3 // operator in kind byte 1 (an irAdd..irNe value)
	eNeg    = 4
	eCall   = 5
	sDecl   = 6
	sAssign = 7
	sIf     = 8
	sWhile  = 9
	sRet    = 10
	sBlock  = 11
	fnAst   = 12 // a=name, b=params cons, c=body block

	qcNext, qcUsed, qcQuads = 0, 4, 8
	quadsPerChunk           = 16

	nameBuckets = 128
	maxFns      = 256
	maxQuads    = 64 * 1024
	metaEntry   = 16 // quad offset, nquads, nparams, nregs
	nGlobals    = 8
)

// Frame slot layout.
const (
	sNames   = iota
	sGlobals // global data array
	sModule  // quad image
	sMeta
	sEnv    // current environment chain head
	sGEnv   // global environment chain head
	sFn     // current function's AST
	sChunks // current function's quad chunks
	sScr1
	sScr2
	numSlots
)

type compiler struct {
	e  appkit.RegionEnv
	sp *mem.Space
	f  appkit.Frame

	clnName, clnEnv, clnNode, clnCons, clnChunk, clnPtr appkit.CleanupID

	file appkit.BoundRegion // file-wide data
	work appkit.BoundRegion // rolling per-~100-statements region

	chunks []appkit.Ptr // host mirror of the quad chunk list
	nq     int          // quads emitted for the current function
	nregs  int

	nfns     int
	quadOff  int // module fill, in quads
	stmts    int // statements since the last region rotation
	allStmts int

	toks   []token
	pos    int
	ident  []byte           // the lexer's identifier buffer
	idents map[string]int32 // identifier texts seen this run -> index in names
	names  []string         // the interned identifier texts, keywords first

	dce     dceScratch
	vm      vmStacks
	argRegs []int // a call's argument registers, stacked across nested calls

	// noFold and noDCE disable the optimization passes (differential tests).
	noFold bool
	noDCE  bool
	// asmOut, when non-nil, receives the pseudo-SPARC text of the compiled
	// module (emitted before the file region is torn down); asmMain gets
	// main's function index.
	asmOut  *string
	asmMain int
}

// RunRegion compiles the generated source file scale times, executing the
// produced code once per compile.
func RunRegion(e appkit.RegionEnv, scale int) uint32 {
	src := Source()
	c := &compiler{e: e, sp: e.Space()}
	c.registerCleanups()
	h := uint32(2166136261)
	for i := 0; i < scale; i++ {
		c.f = e.PushFrame(numSlots)
		result, modHash := c.compileFile(src)
		mix(&h, uint32(result))
		mix(&h, modHash)
		e.PopFrame()
		e.Safepoint()
	}
	e.Finalize()
	return h
}

func (c *compiler) registerCleanups() {
	e := c.e
	c.clnName = e.RegisterCleanup("minicc.name", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o + nmNext))
		return nmChars + int(e.Space().Load(o+nmLen)+3)&^3
	})
	c.clnEnv = e.RegisterCleanup("minicc.env", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o + enNext))
		e.Destroy(e.Space().Load(o + enName))
		return envEntrySize
	})
	c.clnNode = e.RegisterCleanup("minicc.node", func(e appkit.RegionEnv, o appkit.Ptr) int {
		sp := e.Space()
		switch sp.Load(o+aKind) & 0xff {
		case eNum:
		case eVar:
			e.Destroy(sp.Load(o + aA))
		default:
			e.Destroy(sp.Load(o + aA))
			e.Destroy(sp.Load(o + aB))
			e.Destroy(sp.Load(o + aC))
		}
		return nodeSize
	})
	c.clnCons = e.RegisterCleanup("minicc.cons", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o))
		e.Destroy(e.Space().Load(o + 4))
		return 8
	})
	c.clnChunk = e.RegisterCleanup("minicc.chunk", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o + qcNext))
		return qcQuads + quadsPerChunk*quadBytes
	})
	c.clnPtr = e.RegisterCleanup("minicc.ptr", func(e appkit.RegionEnv, o appkit.Ptr) int {
		e.Destroy(e.Space().Load(o))
		return 4
	})
}

// --- lexer ------------------------------------------------------------------

// token is one lexeme: its kind, and for a number its value or for an
// identifier its index in the compiler's interned names.
type token struct {
	kind byte
	val  int32
}

// Token kinds. A one-byte punctuation token's kind is the character
// itself; the codes below are not punctuation characters.
const (
	tEOF byte = iota
	tNum
	tID
	tLe // <=
	tEq // ==
	tNe // !=
)

// punct holds the one-byte punctuation kinds.
const punct = "(){};,+-*/%<="

var kindNames = [...]string{tEOF: "eof", tNum: "num", tID: "id", tLe: "<=", tEq: "==", tNe: "!="}

// kindName is the text a diagnostic shows for a token kind.
func kindName(k byte) string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return string(rune(k))
}

// The keywords are interned first, at these indexes, so the parser tells
// them by an identifier token's value.
const (
	kwInt int32 = iota
	kwIf
	kwElse
	kwWhile
	kwReturn
)

var keywords = [...]string{kwInt: "int", kwIf: "if", kwElse: "else", kwWhile: "while", kwReturn: "return"}

// lex reads the source out of the heap buffer and tokenizes it, reusing
// the previous file's token slice and identifier buffer. Identifier text
// is interned host-side, so a name seen before costs no Go allocation.
func (c *compiler) lex(text appkit.Ptr, n int) []token {
	sp := c.sp
	if cap(c.toks) < n/2 {
		// Generated programs have over two source bytes per token, so
		// this is the run's one token array; denser input still lexes.
		c.toks = make([]token, 0, n/2)
	}
	if c.idents == nil {
		c.idents = make(map[string]int32)
		for _, kw := range keywords {
			c.intern(kw)
		}
	}
	toks := c.toks[:0]
	i := 0
	read := func(k int) byte {
		if k >= n {
			return 0
		}
		return sp.LoadByte(text + appkit.Ptr(k))
	}
	for i < n {
		b := read(i)
		switch {
		case b == ' ' || b == '\n' || b == '\t':
			i++
		case b >= '0' && b <= '9':
			v := int32(0)
			for i < n && read(i) >= '0' && read(i) <= '9' {
				v = v*10 + int32(read(i)-'0')
				i++
			}
			toks = append(toks, token{kind: tNum, val: v})
		case b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b == '_':
			id := c.ident[:0]
			for i < n {
				d := read(i)
				if !(d >= 'a' && d <= 'z' || d >= 'A' && d <= 'Z' || d >= '0' && d <= '9' || d == '_') {
					break
				}
				id = append(id, d)
				i++
			}
			c.ident = id
			idx, ok := c.idents[string(id)]
			if !ok {
				idx = c.intern(string(id))
			}
			toks = append(toks, token{kind: tID, val: idx})
		default:
			var two byte
			if read(i+1) == '=' {
				switch b {
				case '<':
					two = tLe
				case '=':
					two = tEq
				case '!':
					two = tNe
				}
			}
			switch {
			case two != 0:
				toks = append(toks, token{kind: two})
				i += 2
			case strings.IndexByte(punct, b) >= 0:
				toks = append(toks, token{kind: b})
				i++
			default:
				panic(fmt.Sprintf("minicc: bad character %q at %d", b, i))
			}
		}
	}
	return toks
}

// intern adds name to the interned identifiers and returns its index.
func (c *compiler) intern(name string) int32 {
	idx := int32(len(c.names))
	c.names = append(c.names, name)
	c.idents[name] = idx
	return idx
}

// text is an identifier token's text; other tokens have none.
func (c *compiler) text(t token) string {
	if t.kind != tID {
		return ""
	}
	return c.names[t.val]
}

// --- names and environments --------------------------------------------------

func hashStr(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// internName returns the interned name object (file region).
func (c *compiler) internName(name string) appkit.Ptr {
	sp := c.sp
	table := c.f.Get(sNames)
	b := table + appkit.Ptr(hashStr(name)%nameBuckets*4)
	for s := sp.Load(b); s != 0; s = sp.Load(s + nmNext) {
		if int(sp.Load(s+nmLen)) == len(name) && appkit.EqualBytes(sp, s+nmChars, len(name), name) {
			return s
		}
	}
	s := c.file.Alloc(nmChars+(len(name)+3)&^3, c.clnName)
	c.e.StorePtr(s+nmNext, sp.Load(b))
	sp.Store(s+nmLen, uint32(len(name)))
	appkit.StoreBytes(sp, s+nmChars, []byte(name))
	c.e.StorePtr(b, s)
	return s
}

// bind pushes an environment entry. Global entries go in the file region,
// local entries in the working region (they die with the function).
func (c *compiler) bind(global bool, name appkit.Ptr, kind, idx, arity int) {
	reg, slot := c.work, sEnv
	if global {
		reg, slot = c.file, sGEnv
	}
	en := reg.Alloc(envEntrySize, c.clnEnv)
	c.e.StorePtr(en+enNext, c.f.Get(slot))
	c.e.StorePtr(en+enName, name)
	c.sp.Store(en+enKind, uint32(kind))
	c.sp.Store(en+enIdx, uint32(idx))
	c.sp.Store(en+enArity, uint32(arity))
	c.f.Set(slot, en)
}

// lookup resolves a name: locals first, then globals.
func (c *compiler) lookup(name appkit.Ptr) (kind, idx, arity int, ok bool) {
	sp := c.sp
	for _, slot := range []int{sEnv, sGEnv} {
		for en := c.f.Get(slot); en != 0; en = sp.Load(en + enNext) {
			if sp.Load(en+enName) == name {
				return int(sp.Load(en + enKind)), int(sp.Load(en + enIdx)),
					int(sp.Load(en + enArity)), true
			}
		}
	}
	return 0, 0, 0, false
}

func (c *compiler) nameStr(name appkit.Ptr) string {
	return string(appkit.LoadBytes(c.sp, name+nmChars, int(c.sp.Load(name+nmLen))))
}

// --- parser -----------------------------------------------------------------

func (c *compiler) peek() token {
	if c.pos >= len(c.toks) {
		return token{kind: tEOF}
	}
	return c.toks[c.pos]
}

func (c *compiler) nextT() token {
	if c.pos >= len(c.toks) {
		panic("minicc: unexpected end of input")
	}
	t := c.toks[c.pos]
	c.pos++
	return t
}

func (c *compiler) expect(kind byte) token {
	t := c.nextT()
	if t.kind != kind {
		panic(fmt.Sprintf("minicc: expected %q, got %q %q", kindName(kind), kindName(t.kind), c.text(t)))
	}
	return t
}

// expectName consumes an identifier token and returns its text.
func (c *compiler) expectName() string { return c.names[c.expect(tID).val] }

// peekKeyword reports whether the next token is the keyword kw.
func (c *compiler) peekKeyword(kw int32) bool {
	t := c.peek()
	return t.kind == tID && t.val == kw
}

func (c *compiler) accept(kind byte) bool {
	if c.pos < len(c.toks) && c.toks[c.pos].kind == kind {
		c.pos++
		return true
	}
	return false
}

func (c *compiler) node(kind uint32, a, b, d appkit.Ptr, ptrs int) appkit.Ptr {
	n := c.work.Alloc(nodeSize, c.clnNode)
	c.sp.Store(n+aKind, kind)
	// Fields that hold pointers must go through the barrier; immediates use
	// plain stores. ptrs is a bitmask of which of a, b, d are pointers.
	if ptrs&1 != 0 {
		c.e.StorePtr(n+aA, a)
	} else {
		c.sp.Store(n+aA, a)
	}
	if ptrs&2 != 0 {
		c.e.StorePtr(n+aB, b)
	} else {
		c.sp.Store(n+aB, b)
	}
	if ptrs&4 != 0 {
		c.e.StorePtr(n+aC, d)
	} else {
		c.sp.Store(n+aC, d)
	}
	return n
}

var binOps = map[byte]uint32{
	'+': irAdd, '-': irSub, '*': irMul, '/': irDiv, '%': irMod,
	'<': irLt, tLe: irLe, tEq: irEq, tNe: irNe,
}

// parseExpr: comparison over additive over multiplicative over unary.
func (c *compiler) parseExpr() appkit.Ptr {
	left := c.parseAdd()
	for {
		k := c.peek().kind
		if k != '<' && k != tLe && k != tEq && k != tNe {
			return left
		}
		c.nextT()
		right := c.parseAdd()
		left = c.node(eBin|binOps[k]<<8, left, right, 0, 3)
	}
}

func (c *compiler) parseAdd() appkit.Ptr {
	left := c.parseMul()
	for {
		k := c.peek().kind
		if k != '+' && k != '-' {
			return left
		}
		c.nextT()
		right := c.parseMul()
		left = c.node(eBin|binOps[k]<<8, left, right, 0, 3)
	}
}

func (c *compiler) parseMul() appkit.Ptr {
	left := c.parseUnary()
	for {
		k := c.peek().kind
		if k != '*' && k != '/' && k != '%' {
			return left
		}
		c.nextT()
		right := c.parseUnary()
		left = c.node(eBin|binOps[k]<<8, left, right, 0, 3)
	}
}

func (c *compiler) parseUnary() appkit.Ptr {
	if c.accept('-') {
		return c.node(eNeg, c.parseUnary(), 0, 0, 1)
	}
	return c.parsePrimary()
}

func (c *compiler) parsePrimary() appkit.Ptr {
	t := c.nextT()
	switch t.kind {
	case tNum:
		return c.node(eNum, appkit.Ptr(uint32(t.val)), 0, 0, 0)
	case tID:
		name := c.internName(c.names[t.val])
		if c.accept('(') {
			var args, tail appkit.Ptr
			for !c.accept(')') {
				if args != 0 {
					c.expect(',')
				}
				cell := c.work.Alloc(8, c.clnCons)
				c.e.StorePtr(cell, c.parseExpr())
				if args == 0 {
					args = cell
					c.f.Set(sScr1, args)
				} else {
					c.e.StorePtr(tail+4, cell)
				}
				tail = cell
			}
			n := c.node(eCall, name, args, 0, 3)
			c.f.Set(sScr1, 0)
			return n
		}
		return c.node(eVar, name, 0, 0, 1)
	case '(':
		n := c.parseExpr()
		c.expect(')')
		return n
	}
	panic(fmt.Sprintf("minicc: unexpected token %q", kindName(t.kind)))
}

// parseStmt returns one statement node and counts it.
func (c *compiler) parseStmt() appkit.Ptr {
	c.stmts++
	c.allStmts++
	switch {
	case c.accept('{'):
		var head, tail appkit.Ptr
		for !c.accept('}') {
			cell := c.work.Alloc(8, c.clnCons)
			if head == 0 {
				head = cell
				c.f.Set(sScr2, head)
			} else {
				c.e.StorePtr(tail+4, cell)
			}
			tail = cell
			c.e.StorePtr(cell, c.parseStmt())
		}
		n := c.node(sBlock, head, 0, 0, 1)
		c.f.Set(sScr2, 0)
		return n
	case c.peekKeyword(kwInt):
		c.nextT()
		name := c.internName(c.expectName())
		c.expect('=')
		init := c.parseExpr()
		c.expect(';')
		return c.node(sDecl, name, init, 0, 3)
	case c.peekKeyword(kwIf):
		c.nextT()
		c.expect('(')
		cond := c.parseExpr()
		c.expect(')')
		c.f.Set(sScr1, cond)
		then := c.parseStmt()
		n := c.node(sIf, cond, then, 0, 7)
		c.f.Set(sScr1, n)
		if c.peekKeyword(kwElse) {
			c.nextT()
			c.e.StorePtr(n+aC, c.parseStmt())
		}
		c.f.Set(sScr1, 0)
		return n
	case c.peekKeyword(kwWhile):
		c.nextT()
		c.expect('(')
		cond := c.parseExpr()
		c.expect(')')
		c.f.Set(sScr1, cond)
		body := c.parseStmt()
		n := c.node(sWhile, cond, body, 0, 3)
		c.f.Set(sScr1, 0)
		return n
	case c.peekKeyword(kwReturn):
		c.nextT()
		n := c.node(sRet, c.parseExpr(), 0, 0, 1)
		c.expect(';')
		return n
	default:
		// Assignment: id = expr ;
		name := c.internName(c.expectName())
		c.expect('=')
		val := c.parseExpr()
		c.expect(';')
		return c.node(sAssign, name, val, 0, 3)
	}
}

// parseTop parses one top-level declaration: a global or a function.
// It returns (fn AST, true) for functions, (0, false) for globals.
func (c *compiler) parseTop() (appkit.Ptr, bool) {
	if c.expect(tID).val != kwInt {
		panic("minicc: expected int at top level")
	}
	name := c.internName(c.expectName())
	if c.accept(';') {
		// Global variable.
		if _, _, _, ok := c.lookup(name); ok {
			panic("minicc: duplicate global " + c.nameStr(name))
		}
		slot := 0
		for en := c.f.Get(sGEnv); en != 0; en = c.sp.Load(en + enNext) {
			if c.sp.Load(en+enKind) == kGlobalVar {
				slot++
			}
		}
		c.bind(true, name, kGlobalVar, slot, 0)
		return 0, false
	}
	c.expect('(')
	var params, tail appkit.Ptr
	nparams := 0
	for !c.accept(')') {
		if params != 0 {
			c.expect(',')
		}
		if c.expect(tID).val != kwInt {
			panic("minicc: expected int parameter")
		}
		cell := c.work.Alloc(8, c.clnCons)
		c.e.StorePtr(cell, c.internName(c.expectName()))
		if params == 0 {
			params = cell
			c.f.Set(sScr1, params)
		} else {
			c.e.StorePtr(tail+4, cell)
		}
		tail = cell
		nparams++
	}
	fn := c.node(fnAst, name, params, 0, 3)
	c.f.Set(sScr1, fn)
	body := c.parseStmt() // the brace block
	c.e.StorePtr(fn+aC, body)
	c.f.Set(sScr1, 0)
	return fn, true
}
