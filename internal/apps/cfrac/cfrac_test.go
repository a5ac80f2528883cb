package cfrac

import (
	"math/big"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/apps/bignum"
)

func TestPrimeHelpers(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 999983, 24036583}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d)=false", p)
		}
	}
	composites := []uint64{1, 4, 100, 999981, 24036583 * 3}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d)=true", c)
		}
	}
	if got := nextPrime(90); got != 97 {
		t.Errorf("nextPrime(90)=%d", got)
	}
}

func TestLegendre(t *testing.T) {
	// Quadratic residues mod 7: 1, 2, 4.
	for _, a := range []uint64{1, 2, 4} {
		if legendre(a, 7) != 1 {
			t.Errorf("legendre(%d,7) != 1", a)
		}
	}
	for _, a := range []uint64{3, 5, 6} {
		if legendre(a, 7) != 6 {
			t.Errorf("legendre(%d,7) != -1", a)
		}
	}
}

func TestFactorBaseOnlyResidues(t *testing.T) {
	fb := newScratch().factorBase(12345677)
	if fb[0] != 2 {
		t.Fatal("factor base must start with 2")
	}
	for _, p := range fb[1:] {
		if legendre(12345677, p) == p-1 {
			t.Errorf("non-residue prime %d in factor base", p)
		}
	}
	if len(fb) < 10 || len(fb) > maxFB {
		t.Fatalf("factor base size %d", len(fb))
	}
}

func TestInputsAreSemiprimes(t *testing.T) {
	ns, ps, qs := Inputs(4)
	for i, n := range ns {
		if ps[i]*qs[i] != n {
			t.Fatalf("input %d: %d != %d * %d", i, n, ps[i], qs[i])
		}
		if !isPrime(ps[i]) || !isPrime(qs[i]) {
			t.Fatalf("input %d: factors not prime", i)
		}
	}
}

// TestCFRACCongruence validates the sign convention A_{n-1}² ≡ (-1)^n Q_n
// (mod N) for the first steps of the expansion, using the same recurrence
// the drivers run.
func TestCFRACCongruence(t *testing.T) {
	e := appkit.NewMallocEnv("Lea", appkit.Config{})
	a := &rcArena{e: e, sp: e.Space()}
	sp := a.sp

	n := uint64(13290059) // 3851 * 3451
	nBig := bignum.FromUint64(a, n)
	knBig := bignum.FromUint64(a, n)
	g := bignum.Sqrt(a, knBig)

	P := bignum.Copy(a, g)
	Q := bignum.Sub(a, knBig, bignum.Mul(a, g, g))
	Qprev := bignum.FromUint64(a, 1)
	A1 := bignum.Mod(a, g, nBig)
	A2 := bignum.FromUint64(a, 1)

	toBig := func(x bignum.Ptr) *big.Int {
		v, ok := new(big.Int).SetString(bignum.String(sp, x), 16)
		if !ok {
			t.Fatal("bad hex")
		}
		return v
	}
	N := new(big.Int).SetUint64(n)
	for iter := 1; iter <= 25; iter++ {
		if bignum.IsOne(sp, Q) {
			break
		}
		// Check A1² ≡ (-1)^iter · Q (mod N).
		lhs := new(big.Int).Mul(toBig(A1), toBig(A1))
		lhs.Mod(lhs, N)
		rhs := new(big.Int).Set(toBig(Q))
		if iter%2 == 1 {
			rhs.Neg(rhs)
		}
		rhs.Mod(rhs, N)
		if lhs.Cmp(rhs) != 0 {
			t.Fatalf("iter %d: A1²=%v, (-1)^n·Q=%v (mod %d)", iter, lhs, rhs, n)
		}
		q, _ := bignum.DivMod(a, bignum.Add(a, g, P), Q)
		an := bignum.Mod(a, bignum.Add(a, bignum.Mul(a, q, A1), A2), nBig)
		pNext := bignum.Sub(a, bignum.Mul(a, q, Q), P)
		var qNext bignum.Ptr
		if bignum.Cmp(sp, P, pNext) >= 0 {
			qNext = bignum.Add(a, Qprev, bignum.Mul(a, q, bignum.Sub(a, P, pNext)))
		} else {
			qNext = bignum.Sub(a, Qprev, bignum.Mul(a, q, bignum.Sub(a, pNext, P)))
		}
		Qprev, Q, P, A2, A1 = Q, qNext, pNext, A1, an
	}
}

func TestDependenciesNullSpace(t *testing.T) {
	// Three relations whose parities cancel pairwise and a singleton even
	// relation.
	rels := []*relation{
		{exps: []uint8{1, 0, 1}, sign: true},
		{exps: []uint8{0, 1, 1}, sign: false},
		{exps: []uint8{1, 1, 0}, sign: true},
		{exps: []uint8{2, 2, 0}, sign: false}, // already a square
	}
	deps := newScratch().dependencies(rels)
	if len(deps) == 0 {
		t.Fatal("no dependencies found")
	}
	for _, dep := range deps {
		var mask uint64
		for i := range rels {
			if dep&(1<<i) != 0 {
				mask ^= rels[i].parityMask()
			}
		}
		if mask != 0 {
			t.Fatalf("dependency %b has nonzero parity %b", dep, mask)
		}
	}
	// The even relation must appear as a singleton dependency.
	foundSingleton := false
	for _, dep := range deps {
		if dep == 1<<3 {
			foundSingleton = true
		}
	}
	if !foundSingleton {
		t.Fatalf("square relation not a singleton dependency: %b", deps)
	}
}

// TestFactorsSmallSemiprime runs the full malloc driver on one number and
// verifies the factor is right.
func TestFactorsSmallSemiprime(t *testing.T) {
	e := appkit.NewMallocEnv("Lea", appkit.Config{})
	f := e.PushFrame(numSlots)
	defer e.PopFrame()
	a := &rcArena{e: e, sp: e.Space()}
	p, q := nextPrime(138407), nextPrime(184321)
	n := p * q
	got := factorOneM(e, a, f, n, newScratch())
	if got == 0 {
		t.Fatal("failed to factor")
	}
	if n%got != 0 || got == 1 || got == n {
		t.Fatalf("bad factor %d of %d", got, n)
	}
	if !isPrime(got) || !isPrime(n/got) {
		t.Fatalf("factor %d or cofactor %d not prime", got, n/got)
	}
}

func TestVariantsAgreeAndFactor(t *testing.T) {
	const scale = 1
	ns, ps, qs := Inputs(scale)
	var want uint32
	first := true
	check := func(name string, got uint32) {
		if first {
			want, first = got, false
			return
		}
		if got != want {
			t.Fatalf("%s checksum %#x, want %#x", name, got, want)
		}
	}
	// The checksum must correspond to successful factorizations.
	smaller := ps[0]
	if qs[0] < smaller {
		smaller = qs[0]
	}
	if w := checksum([]uint64{ns[0], smaller}); w == 0 {
		t.Fatal("degenerate expected checksum")
	} else {
		want, first = w, false
	}
	for _, kind := range appkit.MallocKinds {
		check("malloc/"+kind, RunMalloc(appkit.NewMallocEnv(kind, appkit.Config{}), scale))
	}
	for _, kind := range appkit.RegionKinds {
		check("region/"+kind, RunRegion(appkit.NewRegionEnv(kind, appkit.Config{}), scale))
	}
}

func TestMallocVariantBalancedRC(t *testing.T) {
	e := appkit.NewMallocEnv("Lea", appkit.Config{})
	RunMalloc(e, 1)
	c := e.Counters()
	if c.LiveBytes != 0 {
		t.Fatalf("%d bytes leaked (refcount imbalance)", c.LiveBytes)
	}
	if c.Allocs != c.FreeCalls {
		t.Fatalf("allocs=%d frees=%d", c.Allocs, c.FreeCalls)
	}
}

func TestRegionVariantManyRegionsNoLeaks(t *testing.T) {
	e := appkit.NewRegionEnv("safe", appkit.Config{})
	RunRegion(e, 1)
	c := e.Counters()
	if c.LiveRegions != 0 || c.LiveBytes != 0 {
		t.Fatalf("regions=%d bytes=%d live at end", c.LiveRegions, c.LiveBytes)
	}
	if c.RegionsCreated < 50 {
		t.Fatalf("only %d regions created; rotation missing?", c.RegionsCreated)
	}
}

func TestRegionUsesLessSpaceThanRC(t *testing.T) {
	// Table 3 vs Table 2: the malloc version allocates more bytes because
	// of the reference-count headers.
	em := appkit.NewMallocEnv("Lea", appkit.Config{})
	RunMalloc(em, 1)
	er := appkit.NewRegionEnv("unsafe", appkit.Config{})
	RunRegion(er, 1)
	mb := em.Counters().BytesRequested
	rb := er.Counters().BytesRequested
	if mb <= rb {
		t.Fatalf("rc version should request more: malloc=%d region=%d", mb, rb)
	}
	t.Logf("requested bytes: rc=%d region=%d (+%.1f%%)", mb, rb, 100*float64(mb-rb)/float64(rb))
}
