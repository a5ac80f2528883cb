// Package minicc reimplements the paper's "lcc" benchmark: a C compiler
// compiling a large input file. lcc is the paper's own host compiler (its
// original already uses Hanson's arenas); since the full lcc cannot be
// rebuilt here, minicc is a compiler for a C subset with the same pipeline
// shape — lexer, recursive-descent parser building an AST, scoped symbol
// tables, a checking pass, and three-address code generation — compiling a
// generated ~2000-line program. A small interpreter executes the generated
// code so every compile is validated end to end.
//
// Region structure, from the paper's port: "we create a region for every
// hundred statements compiled rather than for every statement" — the
// compiler rotates its working region at function boundaries once a hundred
// statements have passed through it, while the file-wide data (global
// symbols, the code module) lives in a region of its own. The original
// lcc's malloc numbers come from the emulation library, marked with
// UsesEmulation.
package minicc

import (
	_ "embed"
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/rng"
)

//go:embed region.go
var regionSource string

// App returns the lcc-stand-in benchmark descriptor.
func App() appkit.App {
	return appkit.App{
		Name:          "lcc",
		DefaultScale:  3, // compile the file this many times
		Region:        RunRegion,
		RegionSource:  regionSource,
		UsesEmulation: true,
	}
}

// Three-address code operations. Each instruction is four words:
// op, a, b, dst.
const (
	irConst = iota // a = immediate
	irMov          // dst = reg a
	irAdd
	irSub
	irMul
	irDiv // generator only emits nonzero constant divisors
	irMod
	irLt
	irLe
	irEq
	irNe
	irNeg    // dst = -a
	irJz     // if reg a == 0 jump to quad b (function-relative)
	irJmp    // jump to quad b
	irParam  // push reg a as the next call argument
	irCall   // a = function index, b = argc
	irRet    // return reg a
	irLoadG  // dst = globals[a]
	irStoreG // globals[b] = reg a
	numOps
)

const quadBytes = 16

// rotateStmts is the paper's "region for every hundred statements".
const rotateStmts = 100

// Source generates the deterministic input program: eight globals and ~120
// functions of declarations, assignments, conditionals, bounded while
// loops, and calls to earlier functions, ending in main.
func Source() []byte { return SourceSeeded(0x1cc) }

// SourceSeeded generates a program from an arbitrary seed; every seed
// yields a valid, terminating program, which the fuzz tests rely on.
func SourceSeeded(seed uint32) []byte {
	g := rng.LCG(seed)
	const nfns = 120
	const nglobals = 8
	// Estimated execution cost per function keeps the random call graph
	// from compounding: functions that have grown expensive stop being
	// eligible callees, so every generated program stays far under the
	// interpreter's step bound for every seed.
	const calleeBudget = 30000
	arity := make([]int, nfns)
	estCost := make([]float64, nfns)
	var callCost float64 // accumulates the current function's call costs
	loopMul := 1.0       // 10x inside while bodies
	var out []byte
	for i := 0; i < nglobals; i++ {
		out = append(out, fmt.Sprintf("int g%d;\n", i)...)
	}

	// expression over params p0..(arity-1), locals given by names, earlier fns
	var expr func(depth, fnIdx int, locals []string) string
	expr = func(depth, fnIdx int, locals []string) string {
		if depth == 0 || g.Pick(4) == 0 {
			switch g.Pick(3) {
			case 0:
				if len(locals) > 0 {
					return locals[g.Pick(len(locals))]
				}
				return fmt.Sprintf("%d", 1+g.Pick(99))
			case 1:
				return fmt.Sprintf("g%d", g.Pick(nglobals))
			default:
				return fmt.Sprintf("%d", 1+g.Pick(99))
			}
		}
		switch g.Pick(8) {
		case 0:
			return fmt.Sprintf("(%s + %s)", expr(depth-1, fnIdx, locals), expr(depth-1, fnIdx, locals))
		case 1:
			return fmt.Sprintf("(%s - %s)", expr(depth-1, fnIdx, locals), expr(depth-1, fnIdx, locals))
		case 2:
			return fmt.Sprintf("(%s * %s)", expr(depth-1, fnIdx, locals), expr(depth-1, fnIdx, locals))
		case 3:
			return fmt.Sprintf("(%s / %d)", expr(depth-1, fnIdx, locals), 2+g.Pick(17))
		case 4:
			return fmt.Sprintf("(%s %% %d)", expr(depth-1, fnIdx, locals), 3+g.Pick(13))
		case 5:
			op := []string{"<", "<=", "==", "!="}[g.Pick(4)]
			return fmt.Sprintf("(%s %s %s)", expr(depth-1, fnIdx, locals), op, expr(depth-1, fnIdx, locals))
		case 6:
			return fmt.Sprintf("(-%s)", expr(depth-1, fnIdx, locals))
		default:
			callee := -1
			if fnIdx > 0 {
				// Pick an affordable callee; give up after a few tries.
				for try := 0; try < 4; try++ {
					cand := g.Pick(fnIdx)
					if estCost[cand] <= calleeBudget {
						callee = cand
						break
					}
				}
			}
			if callee < 0 {
				return fmt.Sprintf("(%s + 1)", expr(depth-1, fnIdx, locals))
			}
			callCost += loopMul * (estCost[callee] + 5)
			s := fmt.Sprintf("f%d(", callee)
			for a := 0; a < arity[callee]; a++ {
				if a > 0 {
					s += ", "
				}
				s += expr(depth-1, fnIdx, locals)
			}
			return s + ")"
		}
	}

	stmts := func(fnIdx int, params []string) string {
		locals := append([]string{}, params...)
		body := ""
		n := 6 + g.Pick(8)
		for s := 0; s < n; s++ {
			switch g.Pick(6) {
			case 0, 1:
				name := fmt.Sprintf("v%d", len(locals))
				body += fmt.Sprintf("  int %s = %s;\n", name, expr(2, fnIdx, locals))
				locals = append(locals, name)
			case 2:
				if len(locals) > 0 {
					body += fmt.Sprintf("  %s = %s;\n", locals[g.Pick(len(locals))], expr(2, fnIdx, locals))
				} else {
					body += fmt.Sprintf("  g%d = %s;\n", g.Pick(nglobals), expr(2, fnIdx, locals))
				}
			case 3:
				body += fmt.Sprintf("  g%d = %s;\n", g.Pick(nglobals), expr(2, fnIdx, locals))
			case 4:
				body += fmt.Sprintf("  if (%s) { g%d = %s; } else { g%d = %s; }\n",
					expr(1, fnIdx, locals), g.Pick(nglobals), expr(1, fnIdx, locals),
					g.Pick(nglobals), expr(1, fnIdx, locals))
			default:
				i := fmt.Sprintf("i%d", len(locals))
				acc := fmt.Sprintf("a%d", len(locals)+1)
				loopMul = 10
				cond := expr(1, fnIdx, locals)
				loopMul = 1
				body += fmt.Sprintf("  int %s = 0;\n  int %s = 0;\n  while (%s < %d) { %s = (%s + %s); %s = (%s + 1); }\n",
					i, acc, i, 2+g.Pick(8), acc, acc, cond, i, i)
				locals = append(locals, i, acc)
			}
		}
		body += fmt.Sprintf("  return %s;\n", expr(2, fnIdx, locals))
		return body
	}

	for i := 0; i < nfns; i++ {
		arity[i] = g.Pick(4)
		sig := ""
		var params []string
		for p := 0; p < arity[i]; p++ {
			if p > 0 {
				sig += ", "
			}
			sig += fmt.Sprintf("int p%d", p)
			params = append(params, fmt.Sprintf("p%d", p))
		}
		callCost = 0
		body := stmts(i, params)
		estCost[i] = 40 + callCost
		out = append(out, fmt.Sprintf("int f%d(%s) {\n%s}\n", i, sig, body)...)
	}
	// main exercises several of the last affordable functions and the
	// globals.
	var mains []int
	for i := nfns - 1; i >= 0 && len(mains) < 6; i-- {
		if estCost[i] <= calleeBudget {
			mains = append(mains, i)
		}
	}
	body := "  int r = 0;\n"
	for _, i := range mains {
		call := fmt.Sprintf("f%d(", i)
		for a := 0; a < arity[i]; a++ {
			if a > 0 {
				call += ", "
			}
			call += fmt.Sprintf("%d", 1+g.Pick(20))
		}
		call += ")"
		body += fmt.Sprintf("  r = (r + %s);\n", call)
	}
	for i := 0; i < nglobals; i++ {
		body += fmt.Sprintf("  r = (r + g%d);\n", i)
	}
	body += "  return r;\n"
	out = append(out, fmt.Sprintf("int main() {\n%s}\n", body)...)
	return out
}

func mix(h *uint32, v uint32) {
	for k := 0; k < 4; k++ {
		*h = (*h ^ (v & 0xff)) * 16777619
		v >>= 8
	}
}
