// Package mudlle reimplements the paper's "mudlle" benchmark: a byte-code
// compiler for a scheme-like language. The paper compiles the same 500-line
// file 100 times; the original program already used unsafe regions, and its
// malloc/free numbers were measured with the emulation region library — the
// App descriptor marks that with UsesEmulation.
//
// Region structure, from the paper: "one region holds the abstract syntax
// tree of the file being compiled and one region is created to hold the
// data structures needed to compile each function."
//
// The pipeline is lexer → s-expression parser (AST in the file region) →
// per-function byte-code generation (scratch in the function region) → a
// module image, which a small stack VM then executes to produce the result
// folded into the checksum.
package mudlle

import (
	_ "embed"
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/rng"
)

//go:embed region.go
var regionSource string

// App returns the mudlle benchmark descriptor.
func App() appkit.App {
	return appkit.App{
		Name:          "mudlle",
		DefaultScale:  100, // compile the file this many times, as the paper
		Region:        RunRegion,
		RegionSource:  regionSource,
		UsesEmulation: true,
	}
}

// Byte-code operations.
const (
	opPushConst  = iota // u32 literal follows
	opPushLocal         // u8 slot follows
	opCall              // u8 function index, u8 argc follow
	opPrim              // u8 primitive, u8 argc follow
	opJmpFalse          // u16 absolute target follows
	opJmp               // u16 absolute target follows
	opStoreLocal        // u8 slot follows
	opRet
)

// Primitives.
const (
	primAdd = iota
	primSub
	primMul
	primLess
)

// Source generates the deterministic ~500-line input program: a chain of
// small function definitions, each built from arithmetic, comparisons,
// conditionals, lets, and calls to earlier functions, ending with main.
func Source() []byte { return SourceSeeded(0x3cde) }

// SourceSeeded generates a program from an arbitrary seed; every seed
// yields a valid, terminating program, which the fuzz tests rely on.
func SourceSeeded(seed uint32) []byte {
	g := rng.LCG(seed)
	const nfns = 120
	// As in minicc's generator, a per-function cost estimate keeps the
	// random call graph from compounding past the VM's step bound.
	const calleeBudget = 30000
	arity := make([]int, nfns)
	estCost := make([]float64, nfns)
	var callCost float64
	var out []byte

	var expr func(depth, params, fnIdx int) string
	expr = func(depth, params, fnIdx int) string {
		if depth == 0 || g.Pick(5) == 0 {
			if params > 0 && g.Pick(3) != 0 {
				return fmt.Sprintf("p%d", g.Pick(params))
			}
			return fmt.Sprintf("%d", g.Pick(100))
		}
		switch g.Pick(7) {
		case 0:
			return fmt.Sprintf("(+ %s %s)", expr(depth-1, params, fnIdx), expr(depth-1, params, fnIdx))
		case 1:
			return fmt.Sprintf("(- %s %s)", expr(depth-1, params, fnIdx), expr(depth-1, params, fnIdx))
		case 2:
			return fmt.Sprintf("(* %s %s)", expr(depth-1, params, fnIdx), expr(depth-1, params, fnIdx))
		case 3:
			return fmt.Sprintf("(if (< %s %s) %s %s)",
				expr(depth-1, params, fnIdx), expr(depth-1, params, fnIdx),
				expr(depth-1, params, fnIdx), expr(depth-1, params, fnIdx))
		case 4:
			return fmt.Sprintf("(let ((t%d %s)) (+ t%d %s))", depth,
				expr(depth-1, params, fnIdx), depth, expr(depth-1, params, fnIdx))
		default:
			callee := -1
			if fnIdx > 0 {
				for try := 0; try < 4; try++ {
					cand := g.Pick(fnIdx)
					if estCost[cand] <= calleeBudget {
						callee = cand
						break
					}
				}
			}
			if callee < 0 {
				return fmt.Sprintf("(* %s 2)", expr(depth-1, params, fnIdx))
			}
			callCost += estCost[callee] + 5
			args := ""
			for a := 0; a < arity[callee]; a++ {
				args += " " + expr(depth-1, params, fnIdx)
			}
			return fmt.Sprintf("(f%d%s)", callee, args)
		}
	}

	for i := 0; i < nfns; i++ {
		arity[i] = 1 + g.Pick(3)
		params := ""
		for p := 0; p < arity[i]; p++ {
			params += fmt.Sprintf(" p%d", p)
		}
		callCost = 0
		b := expr(3, arity[i], i)
		estCost[i] = 30 + callCost
		out = append(out, fmt.Sprintf("(define (f%d%s)\n  %s)\n", i, params, b)...)
	}
	// main combines calls to several of the last affordable functions.
	var mains []int
	for i := nfns - 1; i >= 0 && len(mains) < 5; i-- {
		if estCost[i] <= calleeBudget {
			mains = append(mains, i)
		}
	}
	body := "0"
	for _, i := range mains {
		args := ""
		for a := 0; a < arity[i]; a++ {
			args += fmt.Sprintf(" %d", g.Pick(50))
		}
		body = fmt.Sprintf("(+ %s (f%d%s))", body, i, args)
	}
	out = append(out, fmt.Sprintf("(define (main) %s)\n", body)...)
	return out
}

// checksum folds one compile+run outcome.
func mix(h *uint32, v uint32) {
	for k := 0; k < 4; k++ {
		*h = (*h ^ (v & 0xff)) * 16777619
		v >>= 8
	}
}
