package cfrac

import (
	"regions/internal/apps/appkit"
	"regions/internal/apps/bignum"
	"regions/internal/mem"
)

// rcArena backs the malloc variant's numbers: every number carries a
// one-word reference-count header, as in the original cfrac. Numbers are
// born with count one in the current iteration's release pool; values that
// survive the iteration are retained first.
type rcArena struct {
	e    appkit.MallocEnv
	sp   *mem.Space
	pool []bignum.Ptr
}

func (a *rcArena) Space() *mem.Space { return a.sp }

func (a *rcArena) AllocNum(limbs int) bignum.Ptr {
	base := a.e.Alloc(mem.WordSize + bignum.NumBytes(limbs))
	a.sp.Store(base, 1) // reference count
	p := base + mem.WordSize
	a.pool = append(a.pool, p)
	return p
}

func (a *rcArena) retain(p bignum.Ptr) {
	a.sp.Store(p-mem.WordSize, a.sp.Load(p-mem.WordSize)+1)
}

func (a *rcArena) release(p bignum.Ptr) {
	rc := a.sp.Load(p - mem.WordSize)
	if rc == 0 {
		panic("cfrac: reference count underflow")
	}
	if rc == 1 {
		a.e.Free(p - mem.WordSize)
		return
	}
	a.sp.Store(p-mem.WordSize, rc-1)
}

// flush releases the whole pool: anything not retained dies here.
func (a *rcArena) flush() {
	for _, p := range a.pool {
		a.release(p)
	}
	a.pool = a.pool[:0]
}

// Frame slot layout shared with the region variant: a handful of named
// registers plus one slot per saved relation.
const (
	slotN = iota
	slotKN
	slotG
	slotP
	slotQ
	slotQprev
	slotA1
	slotA2
	slotRel0
	numSlots = slotRel0 + maxFB + extraRels + 2
)

// RunMalloc is the malloc/free variant of cfrac with explicit reference
// counting, the structure of the original program.
func RunMalloc(e appkit.MallocEnv, scale int) uint32 {
	a := &rcArena{e: e, sp: e.Space()}
	ns, _, _ := Inputs(scale)
	sc := newScratch()
	var parts []uint64

	for _, n := range ns {
		f := e.PushFrame(numSlots)
		factor := factorOneM(e, a, f, n, sc)
		parts = append(parts, n, factor)
		e.PopFrame()
	}
	e.Finalize()
	return checksum(parts)
}

func factorOneM(e appkit.MallocEnv, a *rcArena, f appkit.Frame, n uint64, sc *scratch) uint64 {
	sp := a.sp
	for _, k := range multipliers {
		kn := n * k
		fb := sc.factorBase(kn)

		nBig := bignum.FromUint64(a, n)
		a.retain(nBig)
		f.Set(slotN, nBig)
		knBig := bignum.FromUint64(a, kn)
		a.retain(knBig)
		f.Set(slotKN, knBig)
		g := bignum.Sqrt(a, knBig)
		a.retain(g)
		f.Set(slotG, g)

		// State: P=g, Q=kn-g², Qprev=1, A1=g mod N, A2=1.
		set := func(slot int, p bignum.Ptr) bignum.Ptr {
			a.retain(p)
			if old := f.Get(slot); old != 0 {
				a.release(old)
			}
			f.Set(slot, p)
			return p
		}
		set(slotP, bignum.Copy(a, g))
		set(slotQ, bignum.Sub(a, knBig, bignum.Mul(a, g, g)))
		set(slotQprev, bignum.FromUint64(a, 1))
		set(slotA1, bignum.Mod(a, g, nBig))
		set(slotA2, bignum.FromUint64(a, 1))
		a.flush()
		e.Safepoint()

		var rels []*relation
		target := len(fb) + extraRels
		for iter := 1; iter <= maxIters && len(rels) < target; iter++ {
			P, Q := f.Get(slotP), f.Get(slotQ)
			Qprev, A1, A2 := f.Get(slotQprev), f.Get(slotA1), f.Get(slotA2)
			if bignum.IsOne(sp, Q) {
				break // end of the expansion period
			}
			// Smoothness of Q_n gives the relation A_{n-1}² ≡ (-1)^n Q_n.
			if exps := sc.trialDivide(a, sp, Q, fb); exps != nil {
				av := bignum.Copy(a, A1)
				a.retain(av)
				f.Set(slotRel0+len(rels), av)
				rels = append(rels, &relation{a: av, exps: exps, sign: iter%2 == 1})
			}
			// q = (g + P) / Q and the recurrence.
			q, _ := bignum.DivMod(a, bignum.Add(a, f.Get(slotG), P), Q)
			an := bignum.Mod(a, bignum.Add(a, bignum.Mul(a, q, A1), A2), f.Get(slotN))
			pNext := bignum.Sub(a, bignum.Mul(a, q, Q), P)
			var qNext bignum.Ptr
			if bignum.Cmp(sp, P, pNext) >= 0 {
				qNext = bignum.Add(a, Qprev, bignum.Mul(a, q, bignum.Sub(a, P, pNext)))
			} else {
				qNext = bignum.Sub(a, Qprev, bignum.Mul(a, q, bignum.Sub(a, pNext, P)))
			}
			set(slotQprev, Q)
			set(slotQ, qNext)
			set(slotP, pNext)
			set(slotA2, A1)
			set(slotA1, an)
			a.flush()
			e.Safepoint()
		}

		// Combine dependencies into a factor.
		var factor uint64
		for _, dep := range sc.dependencies(rels) {
			factor = combineDep(a, sp, f.Get(slotN), n, fb, rels, dep)
			a.flush()
			e.Safepoint()
			if factor != 0 {
				break
			}
		}

		// Release everything this multiplier retained.
		for i := range rels {
			a.release(f.Get(slotRel0 + i))
			f.Set(slotRel0+i, 0)
		}
		for _, s := range []int{slotN, slotKN, slotG, slotP, slotQ, slotQprev, slotA1, slotA2} {
			if p := f.Get(s); p != 0 {
				a.release(p)
				f.Set(s, 0)
			}
		}
		e.Safepoint()
		if factor != 0 {
			if n/factor < factor {
				factor = n / factor
			}
			return factor
		}
	}
	return 0
}
