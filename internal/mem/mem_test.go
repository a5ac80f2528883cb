package mem

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"regions/internal/cachesim"
	"regions/internal/race"
	"regions/internal/stats"
)

func newSpace() (*Space, *stats.Counters) {
	c := &stats.Counters{}
	return NewSpace(c), c
}

func TestMapPagesAndAccounting(t *testing.T) {
	s, _ := newSpace()
	a := s.MapPages(2)
	if a != PageSize {
		t.Fatalf("first mapping at %#x, want %#x (page 0 reserved)", a, PageSize)
	}
	b := s.MapPages(1)
	if b != 3*PageSize {
		t.Fatalf("second mapping at %#x, want %#x", b, 3*PageSize)
	}
	if s.MappedBytes() != 3*PageSize {
		t.Fatalf("MappedBytes=%d, want %d", s.MappedBytes(), 3*PageSize)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s, _ := newSpace()
	a := s.MapPages(1)
	s.Store(a+8, 0xdeadbeef)
	if got := s.Load(a + 8); got != 0xdeadbeef {
		t.Fatalf("Load=%#x", got)
	}
	if got := s.Load(a + 12); got != 0 {
		t.Fatalf("fresh page word = %#x, want 0", got)
	}
}

func TestCycleCharging(t *testing.T) {
	s, c := newSpace()
	a := s.MapPages(1)
	s.Store(a, 1)
	s.Load(a)
	if c.Cycles[stats.ModeApp] != 2*AppComputeFactor {
		t.Fatalf("app cycles=%d, want %d", c.Cycles[stats.ModeApp], 2*AppComputeFactor)
	}
	old := s.SetMode(stats.ModeAlloc)
	if old != stats.ModeApp {
		t.Fatalf("SetMode returned %v, want app", old)
	}
	s.Store(a, 2)
	s.SetMode(old)
	if c.Cycles[stats.ModeAlloc] != 1 {
		t.Fatalf("alloc cycles=%d, want 1", c.Cycles[stats.ModeAlloc])
	}
	if s.Mode() != stats.ModeApp {
		t.Fatalf("mode not restored: %v", s.Mode())
	}
}

func TestUncharged(t *testing.T) {
	s, c := newSpace()
	s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	a := s.MapPages(1)
	s.Uncharged(func() {
		for i := 0; i < 100; i++ {
			s.Load(a)
		}
	})
	if c.Cycles[stats.ModeApp] != 0 {
		t.Fatalf("uncharged accesses cost %d cycles", c.Cycles[stats.ModeApp])
	}
	if s.Cache().Reads != 0 || c.ReadStalls != 0 {
		t.Fatalf("uncharged accesses reached the cache model: %d reads, %d stall cycles",
			s.Cache().Reads, c.ReadStalls)
	}
}

func TestByteAccess(t *testing.T) {
	s, _ := newSpace()
	a := s.MapPages(1)
	for i, b := range []byte{0x11, 0x22, 0x33, 0x44} {
		s.StoreByte(a+Addr(i), b)
	}
	if got := s.Load(a); got != 0x44332211 {
		t.Fatalf("word after byte stores = %#x, want 0x44332211 (little-endian)", got)
	}
	for i, want := range []byte{0x11, 0x22, 0x33, 0x44} {
		if got := s.LoadByte(a + Addr(i)); got != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	// Overwriting one byte must preserve the rest.
	s.StoreByte(a+1, 0xee)
	if got := s.Load(a); got != 0x4433ee11 {
		t.Fatalf("after partial overwrite: %#x", got)
	}
}

func TestZeroRange(t *testing.T) {
	s, _ := newSpace()
	a := s.MapPages(1)
	for i := 0; i < 16; i += 4 {
		s.Store(a+Addr(i), 0xffffffff)
	}
	s.ZeroRange(a+4, 8)
	want := []Word{0xffffffff, 0, 0, 0xffffffff}
	for i, w := range want {
		if got := s.Load(a + Addr(i*4)); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestZeroPageFree(t *testing.T) {
	s, c := newSpace()
	a := s.MapPages(1)
	s.Store(a+100*4, 7)
	before := c.Cycles[stats.ModeApp]
	s.ZeroPageFree(a + 8) // any address within the page
	if c.Cycles[stats.ModeApp] != before {
		t.Fatal("ZeroPageFree must not charge cycles")
	}
	if got := s.Load(a + 100*4); got != 0 {
		t.Fatalf("page not zeroed: %#x", got)
	}
}

func TestMapped(t *testing.T) {
	s, _ := newSpace()
	a := s.MapPages(1)
	if s.Mapped(0) {
		t.Fatal("address 0 must be unmapped")
	}
	if !s.Mapped(a) || !s.Mapped(a+PageSize-4) {
		t.Fatal("mapped page reported unmapped")
	}
	if s.Mapped(a + PageSize) {
		t.Fatal("page past end reported mapped")
	}
}

func TestUnalignedPanics(t *testing.T) {
	s, _ := newSpace()
	a := s.MapPages(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Load did not panic")
		}
	}()
	s.Load(a + 2)
}

func TestUnmappedPanics(t *testing.T) {
	s, _ := newSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped Load did not panic")
		}
	}()
	s.Load(8)
}

func TestNilAddressPanics(t *testing.T) {
	s, _ := newSpace()
	s.MapPages(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Load(0) did not panic")
		}
	}()
	s.Load(0)
}

func TestCacheAttachment(t *testing.T) {
	s, c := newSpace()
	s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	a := s.MapPages(4)
	for i := 0; i < PageWords; i++ {
		s.Load(a + Addr(i*4))
	}
	if c.ReadStalls == 0 {
		t.Fatal("cold scan through cache produced no read stalls")
	}
	if s.Cache().Reads == 0 {
		t.Fatal("cache saw no reads")
	}
}

func TestMapPagesZeroPanics(t *testing.T) {
	s, _ := newSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("MapPages(0) did not panic")
		}
	}()
	s.MapPages(0)
}

func TestNumPages(t *testing.T) {
	s, _ := newSpace()
	if s.NumPages() != 1 {
		t.Fatalf("fresh space has %d page slots, want 1 (reserved page 0)", s.NumPages())
	}
	s.MapPages(3)
	if s.NumPages() != 4 {
		t.Fatalf("NumPages=%d, want 4", s.NumPages())
	}
}

// accessPanic runs f and returns the value it panicked with, or nil.
func accessPanic(f func()) (v interface{}) {
	defer func() { v = recover() }()
	f()
	return nil
}

func cacheCounts(c *cachesim.Cache) [6]uint64 {
	return [6]uint64{c.Reads, c.Writes, c.L1Misses, c.L2Misses, c.ReadStalls, c.WriteStalls}
}

func TestAccessFaultLeavesNoTrace(t *testing.T) {
	s, c := newSpace()
	cache := cachesim.New(cachesim.UltraSparcI())
	s.AttachCache(cache)
	s.MapPages(8)
	// Addresses 16 KB apart share a slot in the direct-mapped L1. Each case
	// first caches a mapped victim line in the faulting address's slot; had
	// the fault installed its own line, the victim would miss afterwards.
	const l1 = 16 * 1024
	end := Addr(s.NumPages()) << PageShift
	ops := []struct {
		name string
		op   func(Addr)
	}{
		{"Load", func(a Addr) { s.Load(a) }},
		{"Store", func(a Addr) { s.Store(a, 7) }},
		{"LoadByte", func(a Addr) { s.LoadByte(a) }},
		{"StoreByte", func(a Addr) { s.StoreByte(a, 7) }},
		{"ZeroPageFree", s.ZeroPageFree},
		{"PoisonPageFree", s.PoisonPageFree},
		{"PoisonRange", func(a Addr) { s.PoisonRange(a, 16) }},
	}
	type fault struct {
		name         string
		addr, victim Addr
		op           func(Addr)
	}
	var faults []fault
	for _, o := range ops {
		faults = append(faults,
			fault{o.name + "/page0", 0, l1, o.op},
			fault{o.name + "/pastEnd", end, end - l1, o.op})
	}
	faults = append(faults,
		fault{"Load/unaligned", 0x1000 + l1 + 2, 0x1000, ops[0].op},
		fault{"Store/unaligned", 0x1000 + l1 + 2, 0x1000, ops[1].op})

	for _, f := range faults {
		s.Load(f.victim)
		before, cacheBefore := *c, cacheCounts(cache)
		v := accessPanic(func() { f.op(f.addr) })
		e, ok := v.(AccessError)
		if !ok || e.Addr != f.addr || !strings.Contains(e.Error(), fmt.Sprintf("%#x", f.addr)) {
			t.Errorf("%s at %#x: panic value %#v, want AccessError{Addr: %#x} naming it", f.name, f.addr, v, f.addr)
			continue
		}
		if *c != before {
			t.Errorf("%s at %#x changed the counters:\n%+v\n%+v", f.name, f.addr, before, *c)
		}
		if got := cacheCounts(cache); got != cacheBefore {
			t.Errorf("%s at %#x changed the cache counters: %v -> %v", f.name, f.addr, cacheBefore, got)
		}
		stalls := c.ReadStalls
		s.Load(f.victim)
		if c.ReadStalls != stalls {
			t.Errorf("%s at %#x evicted the victim line %#x", f.name, f.addr, f.victim)
		}
	}
}

func TestFirstNonPoisonMatchesLoads(t *testing.T) {
	s, c := newSpace()
	s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	p := s.MapPages(1)
	// loads is the per-word scan FirstNonPoison replaces.
	loads := func(a Addr, size int) (bad Addr) {
		s.Uncharged(func() {
			for off := 0; off < size && bad == 0; off += WordSize {
				if s.Load(a+Addr(off)) != PoisonWord {
					bad = a + Addr(off)
				}
			}
		})
		return bad
	}
	const none = Addr(0)
	block := p + 64 // a 48-byte pooled block inside the page
	for _, tc := range []struct {
		name  string
		stray Addr // word overwritten after poisoning, or none
		a     Addr
		size  int
		want  Addr
	}{
		{"clean page", none, p, PageSize, none},
		{"stray at offset 0", p, p, PageSize, p},
		{"stray mid-page", p + 2048, p, PageSize, p + 2048},
		{"stray in last word", p + PageSize - WordSize, p, PageSize, p + PageSize - WordSize},
		{"clean block", none, block, 48, none},
		{"stray in block", block + 20, block, 48, block + 20},
		{"stray before block", block - WordSize, block, 48, none},
		{"stray after block", block + 48, block, 48, none},
	} {
		s.PoisonPageFree(p)
		if tc.stray != none {
			s.Store(tc.stray, 7)
		}
		before := *c
		got := s.FirstNonPoison(tc.a, tc.size)
		if *c != before {
			t.Errorf("%s: FirstNonPoison charged the counters", tc.name)
		}
		if ref := loads(tc.a, tc.size); got != ref || got != tc.want {
			t.Errorf("%s: FirstNonPoison = %#x, Load scan = %#x, want %#x", tc.name, got, ref, tc.want)
		}
	}
}

func TestWordPathDoesNotAllocate(t *testing.T) {
	s, _ := newSpace()
	s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	p := s.MapPages(2)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Load", func() { s.Load(p + 8) }},
		{"Store", func() { s.Store(p+8, 1) }},
		{"PoisonPageFree", func() { s.PoisonPageFree(p + PageSize) }},
		{"FirstNonPoison", func() { s.FirstNonPoison(p+PageSize, PageSize) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s made %v allocations, want 0", tc.name, n)
		}
	}
}

// TestCheckSharedPages: a write into the shared zero or poison page would
// change every unwritten page of every space at once, so the check names
// the first word that no longer holds its value.
func TestCheckSharedPages(t *testing.T) {
	if err := CheckSharedPages(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    *page
		word int
	}{{"zero", zeroPage, 17}, {"poison", poisonPage, PageWords - 1}} {
		old := c.p.words[c.word]
		c.p.words[c.word] = 7
		err := CheckSharedPages()
		c.p.words[c.word] = old
		want := fmt.Sprintf("shared %s page word %d is 0x7", c.name, c.word)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s page corrupted: CheckSharedPages() = %v, want an error containing %q", c.name, err, want)
		}
	}
	if err := CheckSharedPages(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedPagesOwnOnWrite: a page shares the zero or poison page until a
// store changes one of its words; a store of the word already there and a
// ZeroRange over a fresh page leave it shared, and a freed page's buffer is
// reused by the next first write.
func TestSharedPagesOwnOnWrite(t *testing.T) {
	s, c := newSpace()
	p := s.MapPages(2)
	s.ZeroRange(p, PageSize)
	s.Store(p+PageSize, 0)
	s.PoisonPageFree(p + PageSize)
	s.Store(p+PageSize+8, PoisonWord)
	if s.ResidentBytes() != 0 || s.pages[1] != zeroPage || s.pages[2] != poisonPage {
		t.Fatalf("stores of the shared words backed %d bytes", s.ResidentBytes())
	}
	if want := uint64(PageWords+2) * AppComputeFactor; c.Cycles[stats.ModeApp] != want {
		t.Fatalf("charged %d cycles, want %d: every store charges", c.Cycles[stats.ModeApp], want)
	}
	s.Store(p+8, 5)
	s.Store(p+PageSize+4, 6)
	if s.ResidentBytes() != 2*PageSize {
		t.Fatalf("two written pages back %d bytes, want %d", s.ResidentBytes(), 2*PageSize)
	}
	if got := s.Load(p + PageSize + 8); got != PoisonWord {
		t.Fatalf("written poison page lost its poison: %#x", got)
	}
	if got := s.FirstNonPoison(p+PageSize, PageSize); got != p+PageSize+4 {
		t.Fatalf("FirstNonPoison = %#x, want the stray word %#x", got, p+PageSize+4)
	}
	s.ZeroPageFree(p)
	s.PoisonPageFree(p + PageSize)
	s.Store(p+12, 9)
	if s.ResidentBytes() != 2*PageSize || s.Load(p+8) != 0 || s.Load(p+12) != 9 {
		t.Fatalf("re-zeroed page: resident %d bytes, words %#x %#x", s.ResidentBytes(), s.Load(p+8), s.Load(p+12))
	}
}

// TestHostAllocsUnwrittenPages: mapping, poisoning and auditing pages that
// nobody writes allocates no page buffer, and a warm zero -> write -> poison
// cycle allocates nothing at all.
func TestHostAllocsUnwrittenPages(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 64
	s, _ := newSpace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := s.MapPages(n)
	for i := Addr(0); i < n; i++ {
		s.PoisonPageFree(p + i*PageSize)
	}
	for i := Addr(0); i < n; i++ {
		if bad := s.FirstNonPoison(p+i*PageSize, PageSize); bad != 0 {
			t.Fatalf("poisoned page word %#x is not poison", bad)
		}
	}
	runtime.ReadMemStats(&after)
	if s.ResidentBytes() != 0 {
		t.Errorf("%d unwritten pages back %d bytes, want 0", n, s.ResidentBytes())
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= PageSize {
		t.Errorf("mapping, poisoning and auditing %d pages allocated %d bytes, want under one page", n, b)
	}
	cycle := func() {
		s.ZeroPageFree(p)
		s.Store(p+8, 7)
		s.PoisonPageFree(p)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a warm zero -> write -> poison cycle made %v allocations, want 0", allocs)
	}
}

// benchSpace maps a 256 KB span: it overflows the 16 KB L1 but fits the
// 512 KB L2, so a cached walk mixes L1 hits and misses.
func benchSpace(cached bool) (s *Space, base Addr, span Addr) {
	s, _ = newSpace()
	if cached {
		s.AttachCache(cachesim.New(cachesim.UltraSparcI()))
	}
	return s, s.MapPages(64), 64 * PageSize
}

var sinkWord Word

func BenchmarkLoad(b *testing.B) {
	for _, cached := range []bool{false, true} {
		b.Run(map[bool]string{false: "nocache", true: "cache"}[cached], func(b *testing.B) {
			s, base, span := benchSpace(cached)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkWord += s.Load(base + Addr(i*WordSize)%span)
			}
		})
	}
}

func BenchmarkStore(b *testing.B) {
	for _, cached := range []bool{false, true} {
		b.Run(map[bool]string{false: "nocache", true: "cache"}[cached], func(b *testing.B) {
			s, base, span := benchSpace(cached)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Store(base+Addr(i*WordSize)%span, Word(i))
			}
		})
	}
}

// BenchmarkPageCycle is one page's turn through a warm free list: re-zeroed
// on acquisition, written once, poisoned on release.
func BenchmarkPageCycle(b *testing.B) {
	s, _ := newSpace()
	p := s.MapPages(1)
	s.Store(p, 1)
	s.PoisonPageFree(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ZeroPageFree(p)
		s.Store(p+8, Word(i)|1)
		s.PoisonPageFree(p)
	}
}
