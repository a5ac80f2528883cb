// Package cfrac reimplements the paper's "cfrac" benchmark: factoring
// integers with the continued-fraction method (Morrison–Brillhart CFRAC).
// The paper factored 4175764634412486014593803028771; we factor a seeded
// family of ~50-bit semiprimes, which keeps the same structure — millions
// of small multi-precision allocations with a tiny live set — at laptop
// scale.
//
// The original cfrac manages its numbers with explicit reference counting;
// RunMalloc reproduces that (every number carries a reference-count header,
// costing the extra space Table 3 shows). The paper's region port disables
// the reference counting, creates "a region for temporary computations for
// every few iterations of the main algorithm", and copies partial solutions
// to a solution region so old temporary regions can be deleted — RunRegion
// does exactly that.
package cfrac

import (
	_ "embed"
	"math/bits"

	"regions/internal/apps/appkit"
	"regions/internal/apps/bignum"
	"regions/internal/mem"
	"regions/internal/rng"
)

//go:embed malloc.go
var mallocSource string

//go:embed region.go
var regionSource string

const (
	smoothBound = 1500  // factor-base prime bound
	maxFB       = 48    // factor-base size cap (fits a 64-bit parity mask)
	maxIters    = 30000 // CFRAC iterations per multiplier
	extraRels   = 4     // relations beyond the factor-base size
	rotateEvery = 16    // iterations per temporary region (region variant)
)

var multipliers = []uint64{1, 3, 5, 7}

// App returns the cfrac benchmark descriptor.
func App() appkit.App {
	return appkit.App{
		Name:         "cfrac",
		DefaultScale: 24, // semiprimes per run: ~2M allocations, the paper's order
		Malloc:       RunMalloc,
		Region:       RunRegion,
		MallocSource: mallocSource,
		RegionSource: regionSource,
	}
}

// Inputs returns the seeded semiprimes (and their factors, for tests).
func Inputs(scale int) (ns []uint64, ps, qs []uint64) {
	g := rng.LCG(0xfac7)
	for len(ns) < scale {
		p := nextPrime(uint64(24_000_000 + g.Pick(8_000_000)))
		q := nextPrime(uint64(33_000_000 + g.Pick(9_000_000)))
		if p == q {
			continue
		}
		ns = append(ns, p*q)
		ps = append(ps, p)
		qs = append(qs, q)
	}
	return
}

// --- host-side number theory (machine arithmetic, the program's "registers")

func mulMod64(a, b, m uint64) uint64 {
	var r uint64
	a %= m
	for b > 0 {
		if b&1 == 1 {
			r = (r + a) % m
		}
		a = (a + a) % m
		b >>= 1
	}
	return r
}

func powMod64(a, e, m uint64) uint64 {
	var r uint64 = 1
	a %= m
	for e > 0 {
		if e&1 == 1 {
			r = mulMod64(r, a, m)
		}
		a = mulMod64(a, a, m)
		e >>= 1
	}
	return r
}

// isPrime is a deterministic Miller–Rabin for 64-bit inputs.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powMod64(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		ok := false
		for i := 0; i < r-1; i++ {
			x = mulMod64(x, x, n)
			if x == n-1 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func nextPrime(n uint64) uint64 {
	if n%2 == 0 {
		n++
	}
	for !isPrime(n) {
		n += 2
	}
	return n
}

// legendre returns the Legendre symbol (a|p) for odd prime p: 1, p-1, or 0.
func legendre(a, p uint64) uint64 { return powMod64(a%p, (p-1)/2, p) }

// smallPrimes lists the primes up to smoothBound (host-side table; the
// original reads it from static data).
func smallPrimes() []uint64 {
	sieve := make([]bool, smoothBound+1)
	var ps []uint64
	for i := 2; i <= smoothBound; i++ {
		if !sieve[i] {
			ps = append(ps, uint64(i))
			for j := i * i; j <= smoothBound; j += i {
				sieve[j] = true
			}
		}
	}
	return ps
}

// scratch is one run's host buffers, reused from number to number: the
// prime table, the current factor base, trial division's exponent vector
// and the dependency sets.
type scratch struct {
	primes []uint64
	fb     []uint64
	exps   []uint8
	deps   []uint64
}

func newScratch() *scratch { return &scratch{primes: smallPrimes()} }

// factorBase returns the primes usable for kN: 2 plus every odd prime up to
// the bound with (kN|p) != -1, capped at maxFB entries. The next call
// reuses the slice.
func (s *scratch) factorBase(kn uint64) []uint64 {
	fb := append(s.fb[:0], 2)
	for _, p := range s.primes[1:] {
		if legendre(kn, p) != p-1 {
			fb = append(fb, p)
			if len(fb) == maxFB {
				break
			}
		}
	}
	s.fb = fb
	return fb
}

// relation is one smooth congruence A² ≡ (-1)^sign · Π p^exps (mod N).
// The A value lives in the simulated heap; the exponents are host-side
// derived data.
type relation struct {
	a    bignum.Ptr
	exps []uint8 // exponent per factor-base prime
	sign bool    // true if the (-1) factor is present
}

// parityMask packs a relation's exponent parities (bit 0 = sign).
func (r *relation) parityMask() uint64 {
	var m uint64
	if r.sign {
		m = 1
	}
	for i, e := range r.exps {
		if e&1 == 1 {
			m |= 1 << (i + 1)
		}
	}
	return m
}

// A dependency is a set of relation indices, one bit per relation, so a
// multiplier's relations must fit in 64 bits.
const _ uint = 64 - (maxFB + extraRels)

// dependencies runs GF(2) elimination over the relations' parity masks and
// returns, for each null-space vector found, the set of relation indices.
// Histories combine by symmetric difference (XOR), so every returned set
// uses each relation at most once. The next call reuses the slice.
func (s *scratch) dependencies(rels []*relation) []uint64 {
	type row struct{ mask, hist uint64 }
	var pivots [64]row
	var have uint64 // bit b: pivots[b] is set
	deps := s.deps[:0]
	for i, r := range rels {
		cur := row{mask: r.parityMask(), hist: 1 << i}
		for cur.mask != 0 {
			b := bits.TrailingZeros64(cur.mask)
			if have&(1<<b) == 0 {
				pivots[b] = cur
				have |= 1 << b
				break
			}
			cur.mask ^= pivots[b].mask
			cur.hist ^= pivots[b].hist
		}
		if cur.mask == 0 {
			deps = append(deps, cur.hist)
		}
	}
	s.deps = deps
	return deps
}

// checksum folds per-number outcomes into one comparable value.
func checksum(parts []uint64) uint32 {
	h := uint32(2166136261)
	for _, v := range parts {
		for k := 0; k < 8; k++ {
			h = (h ^ uint32(v&0xff)) * 16777619
			v >>= 8
		}
	}
	return h
}

// combineDep computes gcd(X−Y, N) for one dependency, using arena a for all
// big-number scratch. It returns a nontrivial factor of n or 0.
func combineDep(a bignum.Arena, sp *mem.Space, nBig bignum.Ptr, n uint64,
	fb []uint64, rels []*relation, dep uint64) uint64 {
	// X = Π A_i (mod N), the relations in ascending order.
	x := bignum.FromUint64(a, 1)
	for d := dep; d != 0; d &= d - 1 {
		x = bignum.Mod(a, bignum.Mul(a, x, rels[bits.TrailingZeros64(d)].a), nBig)
	}
	// Exponent sums must be even; Y = Π p^(E/2) (mod N).
	var sums [maxFB]int
	for d := dep; d != 0; d &= d - 1 {
		for j, e := range rels[bits.TrailingZeros64(d)].exps {
			sums[j] += int(e)
		}
	}
	y := bignum.FromUint64(a, 1)
	for j, s := range sums[:len(fb)] {
		for k := 0; k < s/2; k++ {
			y = bignum.Mod(a, bignum.MulSmall(a, y, uint32(fb[j])), nBig)
		}
	}
	// d = |X − Y|; gcd(d, N).
	var d bignum.Ptr
	switch bignum.Cmp(sp, x, y) {
	case 0:
		return 0
	case 1:
		d = bignum.Sub(a, x, y)
	default:
		d = bignum.Sub(a, y, x)
	}
	g := bignum.GCD(a, d, nBig)
	if bignum.IsOne(sp, g) || bignum.Cmp(sp, g, nBig) == 0 {
		return 0
	}
	return bignum.ToUint64(sp, g)
}

// trialDivide factors q over the factor base using heap arithmetic,
// returning the exponent vector if q is smooth, else nil. Every quotient is
// a fresh allocation — the heart of cfrac's allocation churn — in the
// simulated heap; the host builds the vector in scratch and copies it out
// only for a smooth q.
func (s *scratch) trialDivide(a bignum.Arena, sp *mem.Space, q bignum.Ptr, fb []uint64) []uint8 {
	exps := s.exps[:0]
	for range fb {
		exps = append(exps, 0)
	}
	s.exps = exps
	t := q
	for j, p := range fb {
		for {
			quo, rem := bignum.DivModSmall(a, t, uint32(p))
			if rem != 0 {
				break
			}
			t = quo
			exps[j]++
		}
	}
	if bignum.IsOne(sp, t) {
		return append([]uint8(nil), exps...)
	}
	return nil
}
