package mem

import (
	"testing"

	"regions/internal/cachesim"
	"regions/internal/stats"
)

// Operation codes FuzzSpaceOps decodes; the low four bits of an op byte
// pick one, modulo fuzzOps.
const (
	fuzzMap = iota
	fuzzLoad
	fuzzStore
	fuzzStoreByte
	fuzzZeroRange
	fuzzZeroPageFree
	fuzzPoisonPageFree
	fuzzPoisonRange
	fuzzFirstNonPoison
	fuzzUnchargedStore
	fuzzOps
)

// fuzzMaxPages bounds the pages a fuzzed space maps.
const fuzzMaxPages = 8

// flatModel is the oracle FuzzSpaceOps checks a Space against: every
// mapped word in one flat slice, starting at page 1, and the accesses a
// space should have charged and pushed through its cache model.
type flatModel struct {
	words         []Word
	loads, stores uint64
	pages         int
}

func (m *flatModel) valid(a Addr) bool {
	return a%WordSize == 0 && a>>PageShift >= 1 && int(a>>PageShift) <= m.pages
}

func (m *flatModel) word(a Addr) *Word { return &m.words[a/WordSize-PageWords] }

func (m *flatModel) firstNonPoison(a Addr, size Addr) Addr {
	for off := Addr(0); off < size; off += WordSize {
		if *m.word(a + off) != PoisonWord {
			return a + off
		}
	}
	return 0
}

// fuzzReader hands out the fuzz input a byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// addr decodes two bytes into an address in pages 0-9, which covers the
// nil page and at least one page past the last one mapped. An op byte
// with its top bit set adds its bits 4-5 as a byte offset, so one op in
// eight or so is unaligned.
func (r *fuzzReader) addr(op byte) Addr {
	w := Addr(r.next()) | Addr(r.next())<<8
	a := (w>>10)%10<<PageShift | (w&(PageWords-1))*WordSize
	if op&0x80 != 0 {
		a |= Addr(op>>4) & 3
	}
	return a
}

// value decodes a stored word: 0 and PoisonWord, the shared pages'
// contents, are as likely as any other byte.
func (r *fuzzReader) value() Word {
	switch b := r.next(); b {
	case 0:
		return 0
	case 1:
		return PoisonWord
	default:
		return Word(b) * 0x01000193
	}
}

// inPage clamps a size decoded from one byte (32-byte steps) to the rest
// of a's page, for the operations whose range must not cross one.
func (r *fuzzReader) inPage(a Addr) int {
	return int(min(Addr(r.next())*32, (PageSize-a%PageSize)&^(WordSize-1)))
}

// FuzzSpaceOps drives a space of at most eight pages with decoded
// operations and checks it after each one against a flat []Word model:
// every word, FirstNonPoison over every page, the charged cycles and
// cache accesses, the shared pages, and resident bytes never above mapped
// bytes. An unaligned or unmapped address must panic with AccessError and
// change nothing.
func FuzzSpaceOps(f *testing.F) {
	at := func(page, word int) []byte { return []byte{byte(word), byte(page<<2 | word>>8)} }
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	op := func(code byte, args ...[]byte) []byte { return seq(append([][]byte{{code}}, args...)...) }
	// acquire -> write -> release -> re-acquire, a page at a time.
	f.Add(seq(
		op(fuzzMap, []byte{1}),
		op(fuzzZeroRange, at(1, 0), []byte{4}),
		op(fuzzStore, at(1, 3), []byte{7}),
		op(fuzzStoreByte|0x80|0x20, at(1, 4), []byte{0xab}),
		op(fuzzPoisonPageFree, at(1, 9)),
		op(fuzzFirstNonPoison, at(1, 0), []byte{0xff}),
		op(fuzzZeroPageFree, at(1, 0)),
		op(fuzzStore, at(1, 5), []byte{0}),
		op(fuzzStore, at(1, 5), []byte{9}),
		op(fuzzLoad, at(1, 3)),
	))
	// A stray write into a freed page, then the poison audit and reuse.
	f.Add(seq(
		op(fuzzMap, []byte{2}),
		op(fuzzStore, at(2, 100), []byte{3}),
		op(fuzzPoisonPageFree, at(2, 0)),
		op(fuzzPoisonPageFree, at(1, 0)),
		op(fuzzStore, at(1, 1023), []byte{1}),
		op(fuzzStore, at(1, 1022), []byte{5}),
		op(fuzzFirstNonPoison, at(1, 0), []byte{0xff}),
		op(fuzzPoisonRange, at(1, 1020), []byte{1}),
		op(fuzzZeroPageFree, at(1, 0)),
		op(fuzzUnchargedStore, at(2, 7), []byte{2}),
	))
	// Faults: unaligned, the nil page, past the end, and a ZeroRange that
	// runs off the last page.
	f.Add(seq(
		op(fuzzMap, []byte{0}),
		op(fuzzStore|0x80|0x10, at(1, 2), []byte{4}),
		op(fuzzLoad, at(0, 1)),
		op(fuzzPoisonRange, at(2, 0), []byte{1}),
		op(fuzzZeroRange, at(1, 1020), []byte{2}),
		op(fuzzZeroPageFree, at(9, 0)),
	))

	f.Fuzz(func(t *testing.T, in []byte) {
		c := &stats.Counters{}
		s := NewSpace(c)
		cache := cachesim.New(cachesim.UltraSparcI())
		s.AttachCache(cache)
		m := &flatModel{}
		r := fuzzReader(in)
		for step := 0; len(r) > 0 && step < 128; step++ {
			b := r.next()
			code := (b & 0x0f) % fuzzOps
			// When faults is set the op must panic with an AccessError at
			// want; run performs the op on the space.
			var (
				faults bool
				want   Addr
				run    func()
			)
			fault := func(a Addr) bool {
				if m.valid(a) {
					return false
				}
				faults, want = true, a
				return true
			}
			switch code {
			case fuzzMap:
				n := 1 + int(r.next()%3)
				if m.pages+n > fuzzMaxPages {
					continue
				}
				if got := s.MapPages(n); got != Addr(m.pages+1)<<PageShift {
					t.Fatalf("MapPages(%d) = %#x with %d pages mapped", n, got, m.pages)
				}
				m.pages += n
				m.words = append(m.words, make([]Word, n*PageWords)...)
			case fuzzLoad:
				a := r.addr(b)
				if !fault(a) {
					m.loads++
				}
				run = func() {
					if got := s.Load(a); got != *m.word(a) {
						t.Fatalf("Load(%#x) = %#x, model %#x", a, got, *m.word(a))
					}
				}
			case fuzzStore, fuzzUnchargedStore:
				a, v := r.addr(b), r.value()
				if !fault(a) {
					*m.word(a) = v
					if code == fuzzStore {
						m.stores++
					}
				}
				run = func() { s.Store(a, v) }
				if code == fuzzUnchargedStore {
					run = func() { s.Uncharged(func() { s.Store(a, v) }) }
				}
			case fuzzStoreByte:
				a, v := r.addr(b&^0x80)|Addr(b>>4)&3, r.next()
				w := a &^ (WordSize - 1)
				if !fault(w) {
					shift := 8 * (a & (WordSize - 1))
					*m.word(w) = *m.word(w)&^(0xff<<shift) | Word(v)<<shift
					m.loads++
					m.stores++
				}
				run = func() { s.StoreByte(a, v) }
			case fuzzZeroRange:
				a, size := r.addr(b), Addr(r.next())*32
				for off := Addr(0); off < size && !fault(a+off); off += WordSize {
					*m.word(a + off) = 0
					m.stores++
				}
				run = func() { s.ZeroRange(a, int(size)) }
			case fuzzZeroPageFree, fuzzPoisonPageFree:
				a := r.addr(b)
				base, fill := a&^(PageSize-1), Word(0)
				if code == fuzzPoisonPageFree {
					fill = PoisonWord
				}
				if !fault(base) {
					for off := Addr(0); off < PageSize; off += WordSize {
						*m.word(base + off) = fill
					}
				}
				run = func() { s.ZeroPageFree(a) }
				if code == fuzzPoisonPageFree {
					run = func() { s.PoisonPageFree(a) }
				}
			case fuzzPoisonRange:
				a := r.addr(b)
				size := r.inPage(a)
				if !fault(a) {
					for off := Addr(0); off < Addr(size); off += WordSize {
						*m.word(a + off) = PoisonWord
					}
				}
				run = func() { s.PoisonRange(a, size) }
			case fuzzFirstNonPoison:
				a := r.addr(b)
				size := r.inPage(a)
				fault(a)
				run = func() {
					if got, ref := s.FirstNonPoison(a, size), m.firstNonPoison(a, Addr(size)); got != ref {
						t.Fatalf("FirstNonPoison(%#x, %d) = %#x, model %#x", a, size, got, ref)
					}
				}
			}
			if run != nil {
				before, cacheBefore, resident := *c, cacheCounts(cache), s.ResidentBytes()
				v := accessPanic(run)
				switch e, ok := v.(AccessError); {
				case !faults && v != nil:
					t.Fatalf("step %d: op %d panicked: %v", step, code, v)
				case faults && (!ok || e.Addr != want):
					t.Fatalf("step %d: op %d panic %#v, want AccessError at %#x", step, code, v, want)
				// ZeroRange may store words before the one that faults; the
				// model charged exactly those.
				case faults && code != fuzzZeroRange &&
					(*c != before || cacheCounts(cache) != cacheBefore || s.ResidentBytes() != resident):
					t.Fatalf("step %d: faulting op %d at %#x changed the space's counts", step, code, want)
				}
			}
			checkAgainstModel(t, s, c, cache, m)
		}
	})
}

// checkAgainstModel is FuzzSpaceOps' oracle.
func checkAgainstModel(t *testing.T, s *Space, c *stats.Counters, cache *cachesim.Cache, m *flatModel) {
	t.Helper()
	if s.NumPages() != m.pages+1 {
		t.Fatalf("space has %d page slots, model %d pages", s.NumPages(), m.pages)
	}
	for pg := 1; pg <= m.pages; pg++ {
		base := Addr(pg) << PageShift
		if want := (*[PageWords]Word)(m.words[(pg-1)*PageWords:]); s.pages[pg].words != *want {
			for i, w := range s.pages[pg].words {
				if w != want[i] {
					t.Fatalf("word %#x = %#x, model %#x", base+Addr(i)*WordSize, w, want[i])
				}
			}
		}
		if got, want := s.FirstNonPoison(base, PageSize), m.firstNonPoison(base, PageSize); got != want {
			t.Fatalf("FirstNonPoison(page %d) = %#x, model %#x", pg, got, want)
		}
	}
	if want := AppComputeFactor * (m.loads + m.stores); c.Cycles[stats.ModeApp] != want || c.TotalCycles() != want+c.ReadStalls+c.WriteStalls {
		t.Fatalf("charged %d app cycles (total %d), model %d", c.Cycles[stats.ModeApp], c.TotalCycles(), want)
	}
	if cache.Reads != m.loads || cache.Writes != m.stores {
		t.Fatalf("cache saw %d reads and %d writes, model %d and %d", cache.Reads, cache.Writes, m.loads, m.stores)
	}
	if err := CheckSharedPages(); err != nil {
		t.Fatal(err)
	}
	if s.ResidentBytes() > s.MappedBytes() {
		t.Fatalf("resident %d bytes, more than the %d mapped", s.ResidentBytes(), s.MappedBytes())
	}
}
