package cachesim

import (
	"math/rand"
	"slices"
	"testing"
)

func small() Config {
	return Config{
		L1Size: 256, L2Size: 1024,
		LineSize:      64,
		L1MissPenalty: 6, L2MissPenalty: 40,
		StoreBufferCap: 80, DrainPerAccess: 8,
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	r, w := c.Access(0x1000, false)
	if r != 40 || w != 0 {
		t.Fatalf("cold read: stalls (%d,%d), want (40,0)", r, w)
	}
	r, w = c.Access(0x1004, false) // same 64-byte line
	if r != 0 || w != 0 {
		t.Fatalf("hit on same line: stalls (%d,%d), want (0,0)", r, w)
	}
	if c.Reads != 2 || c.L1Misses != 1 || c.L2Misses != 1 {
		t.Fatalf("reads=%d l1miss=%d l2miss=%d", c.Reads, c.L1Misses, c.L2Misses)
	}
}

func TestL1ConflictL2Hit(t *testing.T) {
	c := New(small())
	// L1 is 256 bytes direct-mapped with 64-byte lines: 4 sets. Addresses
	// 0x0 and 0x100 conflict in L1 but live in different L2 sets or ways.
	c.Access(0x0, false)
	c.Access(0x100, false) // evicts 0x0 from L1
	r, _ := c.Access(0x0, false)
	if r != 6 {
		t.Fatalf("L1 conflict, L2 hit: read stall %d, want 6", r)
	}
}

func TestWriteStallsOnlyWhenBufferOverflows(t *testing.T) {
	c := New(small())
	var totalW uint64
	// Two write misses fit in the 80-cycle buffer (40 + 40 - drain).
	for i := 0; i < 2; i++ {
		_, w := c.Access(uint32(0x10000+i*0x1000), true)
		totalW += w
	}
	if totalW != 0 {
		t.Fatalf("buffer should absorb first write misses, got %d stall cycles", totalW)
	}
	// A burst of distinct-line write misses must eventually stall.
	for i := 2; i < 10; i++ {
		_, w := c.Access(uint32(0x10000+i*0x1000), true)
		totalW += w
	}
	if totalW == 0 {
		t.Fatal("sustained write-miss burst should overflow the store buffer")
	}
	if c.WriteStalls != totalW {
		t.Fatalf("counter %d != returned sum %d", c.WriteStalls, totalW)
	}
}

func TestBufferDrains(t *testing.T) {
	c := New(small())
	// Fill the buffer with write misses.
	for i := 0; i < 10; i++ {
		c.Access(uint32(0x10000+i*0x1000), true)
	}
	// Many cheap hits drain it.
	for i := 0; i < 64; i++ {
		c.Access(0x10000, false)
	}
	_, w := c.Access(0x90000, true)
	if w != 0 {
		t.Fatalf("after drain, a single write miss should not stall, got %d", w)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c := New(UltraSparcI())
		for i := 0; i < 10000; i++ {
			addr := uint32((i * 2654435761) % (1 << 20))
			c.Access(addr&^3, i%3 == 0)
		}
		return c.ReadStalls, c.WriteStalls
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", r1, w1, r2, w2)
	}
	if r1 == 0 {
		t.Fatal("expected some read stalls on a random trace")
	}
}

func TestSequentialBeatsRandom(t *testing.T) {
	seq := New(UltraSparcI())
	for i := 0; i < 20000; i++ {
		seq.Access(uint32(i*4), false)
	}
	rnd := New(UltraSparcI())
	for i := 0; i < 20000; i++ {
		rnd.Access(uint32((i*2654435761)%(1<<24))&^3, false)
	}
	if seq.ReadStalls >= rnd.ReadStalls {
		t.Fatalf("sequential scan (%d stalls) should beat random (%d stalls)",
			seq.ReadStalls, rnd.ReadStalls)
	}
}

func TestUltraSparcIConfig(t *testing.T) {
	cfg := UltraSparcI()
	if cfg.LineSize != 64 {
		t.Fatalf("line size %d, want the paper's 64-byte L2 lines", cfg.LineSize)
	}
	if cfg.L1Size != 16*1024 || cfg.L2Size != 512*1024 {
		t.Fatalf("cache sizes %d/%d", cfg.L1Size, cfg.L2Size)
	}
	c := New(cfg)
	if r, w := c.Access(0x4000, false); r == 0 || w != 0 {
		t.Fatalf("cold read stalls (%d,%d)", r, w)
	}
}

func TestL2ConflictEvicts(t *testing.T) {
	c := New(UltraSparcI())
	// 0x1000 and 0x81000 are 512 KB apart, so they share a slot in both
	// direct-mapped levels: each read evicts the other line from L1 and L2
	// and pays the full memory penalty.
	for i := 0; i < 6; i++ {
		addr := uint32(0x1000)
		if i%2 == 1 {
			addr = 0x81000
		}
		if r, w := c.Access(addr, false); r != 42 || w != 0 {
			t.Fatalf("read %d of %#x: stalls (%d,%d), want (42,0)", i, addr, r, w)
		}
	}
	if c.L1Misses != 6 || c.L2Misses != 6 {
		t.Fatalf("l1miss=%d l2miss=%d, want 6 and 6", c.L1Misses, c.L2Misses)
	}
}

func TestNewAllocatesThreeObjects(t *testing.T) {
	// The cache itself plus one tag array per level.
	if n := testing.AllocsPerRun(10, func() { New(UltraSparcI()) }); n > 3 {
		t.Fatalf("New(UltraSparcI()) made %v allocations, want at most 3", n)
	}
}

var sinkCache *Cache

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCache = New(UltraSparcI())
	}
}

var sinkStall uint64

func BenchmarkAccess(b *testing.B) {
	c := New(UltraSparcI())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A 1 MB strided walk: L1 hits within a line, and L1 and L2 misses
		// as it wraps both levels.
		r, w := c.Access(uint32(i*4)&(1<<20-1), i%4 == 0)
		sinkStall += r + w
	}
}

// clone returns an independent copy of c, tags and store buffer included.
func clone(c *Cache) *Cache {
	d := *c
	d.l1 = append([]uint32(nil), c.l1...)
	d.l2 = append([]uint32(nil), c.l2...)
	return &d
}

// counts returns c's store buffer, reads, writes, L1 and L2 misses, and
// read and write stalls.
func counts(c *Cache) [7]uint64 {
	return [7]uint64{uint64(c.pending), c.Reads, c.Writes, c.L1Misses, c.L2Misses, c.ReadStalls, c.WriteStalls}
}

// TestAccessRunEqualsAccessLoop: AccessRun(a, n, w) leaves a cache exactly
// as n calls of Access(a+4i, w) do — returned stalls, every counter, the
// store buffer and every tag — from random states: the store buffer at,
// just below and well below its cap, runs that start mid-line and cross
// lines, reads and writes, on the paper's machine and the small config.
func TestAccessRunEqualsAccessLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{UltraSparcI(), small()} {
		c := New(cfg)
		for trial := 0; trial < 2000; trial++ {
			// Random traffic over four times L1's span or twice L2's
			// leaves hits, L1-only misses and L2 misses behind.
			span := []int{4 * cfg.L1Size, 2 * cfg.L2Size}[rng.Intn(2)]
			for i := rng.Intn(64); i > 0; i-- {
				c.Access(uint32(rng.Intn(span))&^3, rng.Intn(2) == 0)
			}
			switch trial % 3 {
			case 0:
				c.pending = cfg.StoreBufferCap
			case 1:
				c.pending = cfg.StoreBufferCap - 1
			default:
				c.pending = rng.Intn(cfg.StoreBufferCap + 1)
			}
			a := uint32(rng.Intn(span)) &^ 3
			n := rng.Intn(cfg.LineSize + 1) // up to four lines of words
			write := rng.Intn(2) == 0
			loop := clone(c)
			var wantR, wantW uint64
			for i := 0; i < n; i++ {
				r, w := loop.Access(a+uint32(i)*4, write)
				wantR += r
				wantW += w
			}
			gotR, gotW := c.AccessRun(a, n, write)
			if gotR != wantR || gotW != wantW {
				t.Fatalf("%+v trial %d: AccessRun(%#x, %d, %v) stalls (%d,%d), loop (%d,%d)",
					cfg, trial, a, n, write, gotR, gotW, wantR, wantW)
			}
			if got, want := counts(c), counts(loop); got != want {
				t.Fatalf("%+v trial %d: AccessRun(%#x, %d, %v) left store buffer and counters %v, loop %v",
					cfg, trial, a, n, write, got, want)
			}
			if !slices.Equal(c.l1, loop.l1) || !slices.Equal(c.l2, loop.l2) {
				t.Fatalf("%+v trial %d: AccessRun(%#x, %d, %v) left other tags than the loop",
					cfg, trial, a, n, write)
			}
		}
	}
}
