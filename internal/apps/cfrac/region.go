package cfrac

import (
	"regions/internal/apps/appkit"
	"regions/internal/apps/bignum"
	"regions/internal/mem"
)

// regionArena backs the region variant's numbers: allocation is rstralloc
// into whatever region is current (numbers contain no region pointers, so
// they need neither clearing nor cleanups), and there is no reference
// counting at all — the space saving Table 3 shows for region-based cfrac.
type regionArena struct {
	b appkit.BoundRegion
}

func (a *regionArena) Space() *mem.Space { return a.b.Env().Space() }

func (a *regionArena) AllocNum(limbs int) bignum.Ptr {
	return a.b.AllocStr(bignum.NumBytes(limbs))
}

// RunRegion is the region variant of cfrac, following the paper's port:
// reference counting disabled, a temporary region for every few iterations
// of the main algorithm, and partial solutions (the relation numbers)
// copied from it into a solution region so old temporaries can be deleted.
func RunRegion(e appkit.RegionEnv, scale int) uint32 {
	ns, _, _ := Inputs(scale)
	sc := newScratch()
	var parts []uint64
	for _, n := range ns {
		f := e.PushFrame(numSlots)
		factor := factorOneR(e, f, n, sc)
		parts = append(parts, n, factor)
		e.PopFrame()
	}
	e.Finalize()
	return checksum(parts)
}

func factorOneR(e appkit.RegionEnv, f appkit.Frame, n uint64, sc *scratch) uint64 {
	sp := e.Space()
	for _, k := range multipliers {
		kn := n * k
		fb := sc.factorBase(kn)

		// Long-lived values — N, kN, g, the saved relations — go in the
		// solution region; the rolling CFRAC state lives in a temporary
		// region recycled every rotateEvery iterations.
		sol := appkit.NewBound(e)
		solA := &regionArena{b: sol}
		tmp := appkit.NewBound(e)
		tmpA := &regionArena{b: tmp}

		nBig := bignum.FromUint64(solA, n)
		f.Set(slotN, nBig)
		knBig := bignum.FromUint64(solA, kn)
		f.Set(slotKN, knBig)
		g := bignum.Sqrt(solA, knBig) // scratch from Sqrt also lands in sol; it is tiny
		f.Set(slotG, g)

		f.Set(slotP, bignum.Copy(tmpA, g))
		f.Set(slotQ, bignum.Sub(tmpA, knBig, bignum.Mul(tmpA, g, g)))
		f.Set(slotQprev, bignum.FromUint64(tmpA, 1))
		f.Set(slotA1, bignum.Mod(tmpA, g, nBig))
		f.Set(slotA2, bignum.FromUint64(tmpA, 1))
		e.Safepoint()

		var rels []*relation
		target := len(fb) + extraRels
		for iter := 1; iter <= maxIters && len(rels) < target; iter++ {
			P, Q := f.Get(slotP), f.Get(slotQ)
			Qprev, A1, A2 := f.Get(slotQprev), f.Get(slotA1), f.Get(slotA2)
			if bignum.IsOne(sp, Q) {
				break
			}
			if exps := sc.trialDivide(tmpA, sp, Q, fb); exps != nil {
				// Copy the partial solution into the solution region.
				av := bignum.Copy(solA, A1)
				f.Set(slotRel0+len(rels), av)
				rels = append(rels, &relation{a: av, exps: exps, sign: iter%2 == 1})
			}
			q, _ := bignum.DivMod(tmpA, bignum.Add(tmpA, f.Get(slotG), P), Q)
			an := bignum.Mod(tmpA, bignum.Add(tmpA, bignum.Mul(tmpA, q, A1), A2), f.Get(slotN))
			pNext := bignum.Sub(tmpA, bignum.Mul(tmpA, q, Q), P)
			var qNext bignum.Ptr
			if bignum.Cmp(sp, P, pNext) >= 0 {
				qNext = bignum.Add(tmpA, Qprev, bignum.Mul(tmpA, q, bignum.Sub(tmpA, P, pNext)))
			} else {
				qNext = bignum.Sub(tmpA, Qprev, bignum.Mul(tmpA, q, bignum.Sub(tmpA, pNext, P)))
			}
			f.Set(slotQprev, Q)
			f.Set(slotQ, qNext)
			f.Set(slotP, pNext)
			f.Set(slotA2, A1)
			f.Set(slotA1, an)

			if iter%rotateEvery == 0 {
				// Copy the live rolling state forward into a fresh
				// temporary region and delete the old one.
				next := appkit.NewBound(e)
				nextA := &regionArena{b: next}
				for _, s := range []int{slotP, slotQ, slotQprev, slotA1, slotA2} {
					f.Set(s, bignum.Copy(nextA, f.Get(s)))
				}
				if !tmp.Delete() {
					panic("cfrac: temporary region not deletable")
				}
				tmp, tmpA = next, nextA
			}
			e.Safepoint()
		}

		var factor uint64
		for _, dep := range sc.dependencies(rels) {
			depReg := appkit.NewBound(e)
			depA := &regionArena{b: depReg}
			factor = combineDep(depA, sp, f.Get(slotN), n, fb, rels, dep)
			if !depReg.Delete() {
				panic("cfrac: combination region not deletable")
			}
			e.Safepoint()
			if factor != 0 {
				break
			}
		}

		// Everything dies with the two regions; clear the locals first.
		for i := 0; i < numSlots; i++ {
			f.Set(i, 0)
		}
		if !tmp.Delete() {
			panic("cfrac: temporary region not deletable")
		}
		if !sol.Delete() {
			panic("cfrac: solution region not deletable")
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
