package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
)

// Tests for the pooled string allocator (strpool.go): class-boundary
// behaviour, the pooling-on/off address identity, poison and double-free
// detection through Verify (wantInvariant from verify_test.go), pool state
// across export/import and deferred deletion, and a randomized
// alloc/free/recycle soak audited step by step.

// poolBytes is the capacity r's string pool holds parked, 0 without a pool.
func poolBytes(r *Region) uint64 {
	if r.st.pool == nil {
		return 0
	}
	return r.st.pool.bytes
}

// TestStrPoolSameSizeRecycle is the pool's core claim in miniature: free
// then realloc at the same size reuses the same address, and the reuse path
// is cheaper than the bump path it replaced.
func TestStrPoolSameSizeRecycle(t *testing.T) {
	rt, c := newRT(true)
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 64)
	rt.RstrFree(r, p, 64)
	before := c.TotalCycles()
	q := rt.RstrAlloc(r, 64)
	reuseCost := c.TotalCycles() - before
	if q != p {
		t.Fatalf("recycle returned %#x, want the freed block %#x", q, p)
	}
	// A first-probe hit is the fixed 4 plus 1 probe cycle; the bump path
	// charges 4 plus its 3-cycle in-page advance.
	if reuseCost != 5 {
		t.Fatalf("pool hit charged %d cycles, want 5", reuseCost)
	}
	s := rt.StrPoolStats()
	if s.New != 1 || s.Reuse != 1 || s.Freed != 1 {
		t.Fatalf("stats new=%d reuse=%d freed=%d, want 1/1/1", s.New, s.Reuse, s.Freed)
	}
	if got := s.ReuseRatio(); got != 0.5 {
		t.Fatalf("reuse ratio %g, want 0.5", got)
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestStrPoolClassBoundaries walks every class boundary with sizes one
// under, exactly at, and one over each power of two: the floor-class filing
// must let an equal-size request reuse, and a one-over request (which floors
// to the same class but needs more bytes) must not reuse a smaller block.
func TestStrPoolClassBoundaries(t *testing.T) {
	for sz := 8; sz <= 2048; sz <<= 1 {
		for _, d := range []int{-1, 0, 1} {
			size := sz + d
			if align4(size) > defaultStrPoolMax {
				continue // above the ceiling: the Big test covers it
			}
			t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
				rt, _ := newRT(true)
				r := rt.NewRegion()
				p := rt.RstrAlloc(r, size)
				rt.RstrFree(r, p, size)
				if q := rt.RstrAlloc(r, size); q != p {
					t.Fatalf("same-size realloc of %d got %#x, want freed %#x", size, q, p)
				}
				if err := rt.Verify(); err != nil {
					t.Fatalf("verify: %v", err)
				}
				// A request 4 bytes larger floors into the same or next
				// class but cannot fit the parked capacity: it must bump.
				rt.RstrFree(r, p, size)
				if q := rt.RstrAlloc(r, size+4); q == p {
					t.Fatalf("%d-byte realloc reused the %d-byte block", size+4, size)
				}
				// A request smaller than the parked capacity but in the same
				// class reuses it; the slack stays inside the block.
				if size >= strClassMin+4 {
					want := align4(size) // parked capacity
					q := rt.RstrAlloc(r, size-4)
					if align4(size-4) != want && strClassIdx(align4(size-4)) == strClassIdx(want) && q != p {
						t.Fatalf("smaller same-class realloc got %#x, want %#x", q, p)
					}
				}
				if err := rt.Verify(); err != nil {
					t.Fatalf("verify after slack reuse: %v", err)
				}
			})
		}
	}
}

// TestStrPoolBigAboveCeiling: requests above the ceiling are "Big" — bump
// only, counted separately, and their frees park nothing.
func TestStrPoolBigAboveCeiling(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 3000)
	s := rt.StrPoolStats()
	if s.Big != 1 || s.New != 0 {
		t.Fatalf("big=%d new=%d after above-ceiling alloc, want 1/0", s.Big, s.New)
	}
	if s.Ceiling != 2048 {
		t.Fatalf("ceiling %d, want 2048", s.Ceiling)
	}
	rt.RstrFree(r, p, 3000)
	if got := poolBytes(r); got != 0 {
		t.Fatalf("above-ceiling free parked %d bytes, want 0", got)
	}
	if q := rt.RstrAlloc(r, 3000); q == p {
		t.Fatal("above-ceiling realloc reused a block the pool should not hold")
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestStrPoolAddressIdentityWithoutFrees: a workload that never frees gets
// a bit-identical address stream with pooling on or off — the miss path
// bumps exactly what the paper's allocator would.
func TestStrPoolAddressIdentityWithoutFrees(t *testing.T) {
	run := func(noPool bool) []Ptr {
		rt, _ := newRTOpts(Options{Safe: true, NoStrPool: noPool})
		r := rt.NewRegion()
		rng := rand.New(rand.NewSource(7))
		var out []Ptr
		for i := 0; i < 500; i++ {
			out = append(out, rt.RstrAlloc(r, 4+rng.Intn(600)))
		}
		return out
	}
	pooled, bump := run(false), run(true)
	for i := range pooled {
		if pooled[i] != bump[i] {
			t.Fatalf("alloc %d: pooled %#x, no-pool %#x — free-less streams must match", i, pooled[i], bump[i])
		}
	}
}

// TestStrPoolNoStrPoolDisablesReuse: under NoStrPool the counters still
// account allocations but frees park nothing and nothing reuses.
func TestStrPoolNoStrPoolDisablesReuse(t *testing.T) {
	rt, _ := newRTOpts(Options{Safe: true, NoStrPool: true})
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 64)
	rt.RstrFree(r, p, 64)
	if q := rt.RstrAlloc(r, 64); q == p {
		t.Fatal("NoStrPool runtime reused a freed block")
	}
	s := rt.StrPoolStats()
	if s.Enabled {
		t.Fatal("stats report pooling enabled under NoStrPool")
	}
	if s.New != 2 || s.Reuse != 0 || s.Freed != 1 {
		t.Fatalf("stats new=%d reuse=%d freed=%d, want 2/0/1", s.New, s.Reuse, s.Freed)
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestStrPoolPoisonIntegrity: a stray write into a parked block trips
// Verify's poison audit.
func TestStrPoolPoisonIntegrity(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 64)
	rt.RstrFree(r, p, 64)
	if w := rt.Space().Load(p); w != mem.PoisonWord {
		t.Fatalf("freed block holds %#x, want poison", w)
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify before corruption: %v", err)
	}
	rt.Space().Store(p+4, 0x1234)
	wantInvariant(t, rt, "not poison")
}

// TestStrPoolDoubleFreeOverlap: a second free of a parked block is rejected
// with a FaultBadArgument before the pool changes; a pool that files one
// extent twice anyway is what Verify's overlap check names.
func TestStrPoolDoubleFreeOverlap(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	p := rt.RstrAlloc(r, 64)
	rt.RstrFree(r, p, 64)
	var f *Fault
	if err := rt.TryRstrFree(r, p, 64); !errors.As(err, &f) || f.Kind != FaultBadArgument {
		t.Fatalf("second free: %v, want a FaultBadArgument", err)
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify after the rejected free: %v", err)
	}
	rt.strPoolPut(r, p, 64) // the pool corrupted past the check
	wantInvariant(t, rt, "double free")
}

// TestStrPoolFreeForeignPointer: freeing memory the region does not own is
// a dangling-destroy fault and parks nothing.
func TestStrPoolFreeForeignPointer(t *testing.T) {
	rt, _ := newRT(true)
	r1, r2 := rt.NewRegion(), rt.NewRegion()
	p := rt.RstrAlloc(r1, 64)
	err := rt.TryRstrFree(r2, p, 64)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultDanglingDestroy {
		t.Fatalf("want FaultDanglingDestroy, got %v", err)
	}
	if poolBytes(r2) != 0 {
		t.Fatal("foreign free parked bytes")
	}
}

// TestStrPoolDiesWithRegion: deleting a region drops its pool; a deferred
// deletion must do the same at detach time, before the sweep runs, so no
// sweep interleaving can resurrect a parked block.
func TestStrPoolDiesWithRegion(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		t.Run(fmt.Sprintf("deferred=%v", deferred), func(t *testing.T) {
			rt, _ := newRTOpts(Options{Safe: true, DeferredDelete: deferred, SweepBudget: 1})
			r := rt.NewRegion()
			for i := 0; i < 8; i++ {
				rt.RstrFree(r, rt.RstrAlloc(r, 128), 128)
			}
			if poolBytes(r) == 0 {
				t.Fatal("pool empty before delete")
			}
			if !rt.DeleteRegion(r) {
				t.Fatal("delete refused")
			}
			// A detached region keeps its state, and with it the emptied
			// table, until the sweep; no block may stay parked.
			if poolBytes(r) != 0 || r.st.pool != nil && r.st.pool.mask != 0 || rt.t.StrParked != [strClasses]int64{} {
				t.Fatal("pool survived deletion")
			}
			// Interleave fresh pool traffic with the incremental sweep: the
			// audit must hold on every slice boundary.
			r2 := rt.NewRegion()
			var q Ptr
			for rt.SweepDebt() > 0 {
				if q != 0 {
					rt.RstrFree(r2, q, 96)
				}
				q = rt.RstrAlloc(r2, 96)
				rt.SweepSlice()
				if err := rt.Verify(); err != nil {
					t.Fatalf("verify mid-sweep: %v", err)
				}
			}
			if err := rt.Verify(); err != nil {
				t.Fatalf("verify after sweep: %v", err)
			}
		})
	}
}

// TestStrPoolExportImport: a populated pool round-trips through region
// migration — parked blocks are remapped to the new addresses, re-poisoned,
// and reusable on the receiver; Verify passes on both sides.
func TestStrPoolExportImport(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRT(true)
	r := src.NewRegion()
	// Allocate everything first, then free: freeing as we go would let the
	// later same-class allocations reuse the parked blocks.
	type pb struct {
		p  Ptr
		sz int
	}
	var blocks []pb
	for _, sz := range []int{24, 64, 64, 200, 512, 2048} {
		blocks = append(blocks, pb{src.RstrAlloc(r, sz), sz})
	}
	keep := src.RstrAlloc(r, 300) // live payload the record must carry
	src.Space().Store(keep, 0xfeed)
	for _, b := range blocks {
		src.RstrFree(r, b.p, b.sz)
	}
	wantBytes := poolBytes(r)

	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(rec.StrPool) != len(blocks) {
		t.Fatalf("record carries %d pool blocks, want %d", len(rec.StrPool), len(blocks))
	}
	if err := src.Verify(); err != nil {
		t.Fatalf("verify source after export: %v", err)
	}
	r2, err := dst.ImportRegion(rec)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := poolBytes(r2); got != wantBytes {
		t.Fatalf("imported pool holds %d bytes, want %d", got, wantBytes)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("verify destination: %v", err)
	}
	// The remapped blocks must actually serve allocations.
	before := dst.StrPoolStats().Reuse
	dst.RstrAlloc(r2, 64)
	if got := dst.StrPoolStats().Reuse; got != before+1 {
		t.Fatalf("post-import alloc did not reuse (reuse %d -> %d)", before, got)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("verify after post-import reuse: %v", err)
	}
}

// TestStrPoolImportIntoNoStrPool: a receiver with pooling off (or a lower
// ceiling) silently drops parked blocks instead of importing state it would
// immediately flag as an invariant violation.
func TestStrPoolImportIntoNoStrPool(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRTOpts(Options{Safe: true, NoStrPool: true})
	r := src.NewRegion()
	p := src.RstrAlloc(r, 64)
	src.RstrFree(r, p, 64)
	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	r2, err := dst.ImportRegion(rec)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if r2.st.pool != nil {
		t.Fatal("NoStrPool receiver kept imported pool blocks")
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestStrPoolGauges: the per-class occupancy gauges track park/take/clear
// exactly, and a registry attached mid-flight reads the live pools.
func TestStrPoolGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := NewRuntimeOpts(mem.NewSpace(&stats.Counters{}), Options{Safe: true})
	rt.SetMetrics(reg)
	g64 := func() int64 {
		v, _ := reg.Snapshot().Gauge(`regions_str_pool_blocks{class="64"}`)
		return v
	}
	r := rt.NewRegion()
	p1, p2 := rt.RstrAlloc(r, 64), rt.RstrAlloc(r, 64)
	rt.RstrFree(r, p1, 64)
	rt.RstrFree(r, p2, 64)
	if got := g64(); got != 2 {
		t.Fatalf("gauge after two frees: %d, want 2", got)
	}
	rt.RstrAlloc(r, 64)
	if got := g64(); got != 1 {
		t.Fatalf("gauge after reuse: %d, want 1", got)
	}
	if got, _ := reg.Snapshot().Counter("regions_str_reuse_total"); got != 1 {
		t.Fatalf("reuse counter %d, want 1", got)
	}
	rt.DeleteRegion(r)
	if got := g64(); got != 0 {
		t.Fatalf("gauge after delete: %d, want 0", got)
	}
	// A registry attached mid-flight reads the live pools.
	rt2 := NewRuntimeOpts(mem.NewSpace(&stats.Counters{}), Options{Safe: true})
	r2 := rt2.NewRegion()
	rt2.RstrFree(r2, rt2.RstrAlloc(r2, 32), 32)
	reg2 := metrics.NewRegistry()
	rt2.SetMetrics(reg2)
	if got, _ := reg2.Snapshot().Gauge(`regions_str_pool_blocks{class="32"}`); got != 1 {
		t.Fatalf("mid-run attach reads %d parked blocks, want 1", got)
	}
}

// TestStrPoolRandomizedSoak drives a randomized alloc/free/recycle mix —
// boundary sizes, Big sizes, slack reuse, region churn, deferred deletion —
// and audits the full heap with Verify at every step. Live blocks carry a
// seeded fill that is checked before each free, so a pool bug that hands
// out overlapping or still-live memory surfaces as data corruption even if
// the invariants miss it.
func TestStrPoolRandomizedSoak(t *testing.T) {
	for _, opt := range []Options{
		{Safe: true},
		{Safe: true, DeferredDelete: true, SweepBudget: 2},
	} {
		t.Run(fmt.Sprintf("max=0,deferred=%v", opt.DeferredDelete), func(t *testing.T) {
			rt, _ := newRTOpts(opt)
			rng := rand.New(rand.NewSource(42))
			sizes := []int{4, 7, 8, 9, 24, 31, 32, 33, 63, 64, 65, 127, 128, 129,
				200, 255, 256, 257, 511, 512, 513, 1024, 2047, 2048, 2049, 3000}
			type blk struct {
				p    Ptr
				size int
				fill uint32
			}
			live := map[*Region][]blk{}
			var regions []*Region
			newRegion := func() *Region {
				r := rt.NewRegion()
				regions = append(regions, r)
				return r
			}
			newRegion()
			fill := func(b blk) {
				for o := 0; o+4 <= align4(b.size); o += 4 {
					rt.Space().Store(b.p+Ptr(o), b.fill+uint32(o))
				}
			}
			check := func(b blk) {
				for o := 0; o+4 <= align4(b.size); o += 4 {
					if w := rt.Space().Load(b.p + Ptr(o)); w != b.fill+uint32(o) {
						t.Fatalf("live block %#x corrupted at +%d: %#x", b.p, o, w)
					}
				}
			}
			const steps = 1200
			for i := 0; i < steps; i++ {
				r := regions[rng.Intn(len(regions))]
				switch op := rng.Intn(10); {
				case op < 5: // alloc
					sz := sizes[rng.Intn(len(sizes))]
					b := blk{rt.RstrAlloc(r, sz), sz, rng.Uint32()}
					fill(b)
					live[r] = append(live[r], b)
				case op < 8: // free a random live block
					if n := len(live[r]); n > 0 {
						j := rng.Intn(n)
						b := live[r][j]
						check(b)
						rt.RstrFree(r, b.p, b.size)
						live[r][j] = live[r][n-1]
						live[r] = live[r][:n-1]
					}
				case op < 9: // region churn
					if len(regions) > 1 && rng.Intn(2) == 0 {
						j := rng.Intn(len(regions))
						dead := regions[j]
						if rt.DeleteRegion(dead) {
							delete(live, dead)
							regions[j] = regions[len(regions)-1]
							regions = regions[:len(regions)-1]
						}
					} else {
						newRegion()
					}
				default: // advance the deferred sweep, if any
					rt.SweepSlice()
				}
				if err := rt.Verify(); err != nil {
					t.Fatalf("step %d: verify: %v", i, err)
				}
			}
			for _, r := range regions {
				for _, b := range live[r] {
					check(b)
				}
			}
			s := rt.StrPoolStats()
			if s.Reuse == 0 {
				t.Fatal("soak never reused — the mix is not exercising the pool")
			}
			t.Logf("soak: new=%d reuse=%d big=%d freed=%d ratio=%.3f",
				s.New, s.Reuse, s.Big, s.Freed, s.ReuseRatio())
		})
	}
}

// TestStrPoolImportRejectsBadBlocks: a record whose parked string blocks
// RstrFree could not have parked is refused with a FaultBadArgument before
// the receiver acquires a page, and the receiver stays clean.
func TestStrPoolImportRejectsBadBlocks(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(rec *RegionRecord)
	}{
		{"cap-above-ceiling", func(rec *RegionRecord) { rec.StrPool[0].Cap = 4096 }},
		{"cap-below-class", func(rec *RegionRecord) { rec.StrPool[0].Cap = 0 }},
		{"cap-unaligned", func(rec *RegionRecord) { rec.StrPool[0].Cap = 6 }},
		{"addr-unaligned", func(rec *RegionRecord) { rec.StrPool[0].OldAddr += 2 }},
		{"addr-on-link-word", func(rec *RegionRecord) { rec.StrPool[0].OldAddr = rec.Str[0].OldFirst }},
		{"crosses-page", func(rec *RegionRecord) {
			rec.StrPool[0].OldAddr = rec.Str[0].OldFirst + mem.PageSize - 32
		}},
		{"on-normal-run", func(rec *RegionRecord) { rec.StrPool[0].OldAddr = rec.Normal[0].OldFirst + 64 }},
		{"past-bump-frontier", func(rec *RegionRecord) { rec.StrPool[0].OldAddr = rec.Str[0].OldFirst + 1024 }},
		{"bump-offset-on-link-word", func(rec *RegionRecord) {
			rec.Normal[0].Words[(rec.OldHdr-rec.Normal[0].OldFirst+offStringAvail)/mem.WordSize] = 0
		}},
		{"blocks-overlap", func(rec *RegionRecord) {
			rec.StrPool = append(rec.StrPool, StrPoolRecord{OldAddr: rec.StrPool[0].OldAddr + 8, Cap: 32})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			src, _ := newRT(true)
			dst, _ := newRT(true)
			r := src.NewRegion()
			p := src.RstrAlloc(r, 64)
			src.RstrAlloc(r, 16)
			src.RstrFree(r, p, 64)
			rec, err := src.ExportRegion(r)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			c.edit(rec)
			counters, mapped := *dst.Counters(), dst.Space().MappedBytes()
			var f *Fault
			if r2, err := dst.ImportRegion(rec); r2 != nil || !errors.As(err, &f) || f.Kind != FaultBadArgument {
				t.Fatalf("import = %v, %v; want a FaultBadArgument", r2, err)
			}
			if *dst.Counters() != counters || dst.Space().MappedBytes() != mapped || len(dst.LiveRegions()) != 0 {
				t.Error("the refused import changed the receiver")
			}
			if err := dst.Verify(); err != nil {
				t.Errorf("verify receiver: %v", err)
			}
		})
	}
}
