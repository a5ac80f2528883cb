// Package grobner reimplements the paper's "gröbner" benchmark: computing
// Gröbner bases of polynomial systems with Buchberger's algorithm. The
// paper's input was nine nine-variable polynomials; ours is a seeded family
// of three-variable systems over GF(32003), scaled by the number of
// systems. The algorithm is extremely allocation-intensive — every
// polynomial operation builds fresh term lists — with a tiny live set,
// matching the paper's profile (hundreds of thousands of allocations, tens
// of kilobytes live).
//
// The region version follows the paper's port: intermediates (S-polynomials
// and reduction steps) live in a scratch region recycled every few
// iterations, and polynomials that join the basis are copied into a result
// region — "add copies of the polynomials that form the basis to a result
// region".
package grobner

import (
	_ "embed"

	"regions/internal/apps/appkit"
	"regions/internal/rng"
)

//go:embed malloc.go
var mallocSource string

//go:embed region.go
var regionSource string

// P is the coefficient field modulus.
const P = 32003

// maxPairsPerSystem caps Buchberger's pair loop and maxReduceSteps caps a
// single reduction, so adversarial random systems cannot run away; both
// caps are deterministic and thus part of the result.
const (
	maxPairsPerSystem = 300
	maxReduceSteps    = 400
)

// maxBasis bounds the basis array allocated per system.
const maxBasis = 96

// App returns the gröbner benchmark descriptor.
func App() appkit.App {
	return appkit.App{
		Name:         "grobner",
		DefaultScale: 2, // systems per run; ~1M term allocations, as the paper's input
		Malloc:       RunMalloc,
		Region:       RunRegion,
		MallocSource: mallocSource,
		RegionSource: regionSource,
	}
}

// Monomials: three variables packed lexicographically into one word,
// ten bits per exponent, x most significant. Larger word = larger monomial.
const (
	expBits = 10
	expMask = 1<<expBits - 1
	maxExp  = expMask
)

func mono(e0, e1, e2 uint32) uint32 { return e0<<(2*expBits) | e1<<expBits | e2 }

func monoMul(a, b uint32) uint32 {
	r := uint32(0)
	for _, sh := range []uint{2 * expBits, expBits, 0} {
		e := (a >> sh & expMask) + (b >> sh & expMask)
		if e > maxExp {
			panic("grobner: exponent overflow")
		}
		r |= e << sh
	}
	return r
}

func monoDivides(a, b uint32) bool { // a | b
	return a>>(2*expBits) <= b>>(2*expBits) &&
		a>>expBits&expMask <= b>>expBits&expMask &&
		a&expMask <= b&expMask
}

func monoDiv(b, a uint32) uint32 { // b / a, assumes a | b
	return b - a
}

func monoLCM(a, b uint32) uint32 {
	r := uint32(0)
	for _, sh := range []uint{2 * expBits, expBits, 0} {
		ea, eb := a>>sh&expMask, b>>sh&expMask
		if eb > ea {
			ea = eb
		}
		r |= ea << sh
	}
	return r
}

// Field arithmetic over GF(P), host-side scalar math (registers).
func fAdd(a, b uint32) uint32 { return (a + b) % P }
func fSub(a, b uint32) uint32 { return (a + P - b) % P }
func fMul(a, b uint32) uint32 { return uint32(uint64(a) * uint64(b) % P) }

func fInv(a uint32) uint32 {
	// Fermat: a^(P-2) mod P.
	var r uint32 = 1
	e := uint32(P - 2)
	base := a % P
	for e > 0 {
		if e&1 == 1 {
			r = fMul(r, base)
		}
		base = fMul(base, base)
		e >>= 1
	}
	return r
}

// genTerm is one term of a generator polynomial, host-side (input data).
type genTerm struct {
	coef uint32
	mono uint32
}

// systems generates the seeded polynomial systems: scale systems of three
// generators, each with three to five terms of degree at most two.
func systems(scale int) [][][]genTerm {
	out := make([][][]genTerm, scale)
	for s := range out {
		g := rng.LCG(0x9b0 + s*2654435761)
		sys := make([][]genTerm, 3)
		for p := range sys {
			nt := 3 + g.Pick(3)
			seen := map[uint32]bool{}
			var terms []genTerm
			for len(terms) < nt {
				m := mono(uint32(g.Pick(3)), uint32(g.Pick(3)), uint32(g.Pick(3)))
				if seen[m] {
					continue
				}
				seen[m] = true
				terms = append(terms, genTerm{coef: 1 + uint32(g.Pick(P-1)), mono: m})
			}
			// Sort descending by monomial so lists are born ordered.
			for i := 1; i < len(terms); i++ {
				for j := i; j > 0 && terms[j-1].mono < terms[j].mono; j-- {
					terms[j-1], terms[j] = terms[j], terms[j-1]
				}
			}
			sys[p] = terms
		}
		out[s] = sys
	}
	return out
}

// checksum folds per-system basis summaries into one comparable value.
func checksum(parts []uint32) uint32 {
	h := uint32(2166136261)
	for _, v := range parts {
		for k := 0; k < 4; k++ {
			h = (h ^ (v & 0xff)) * 16777619
			v >>= 8
		}
	}
	return h
}
