// Package mem provides the simulated machine underneath every allocator in
// this repository: a 32-bit byte-addressed, word-granular address space made
// of 4 KB pages, handed out by a simulated operating system that tracks the
// total memory "requested from the OS" (the OS bar of the paper's Figure 8).
//
// All allocators — the region library, the three malloc implementations, and
// the conservative collector — place both program data and their own
// metadata (free lists, boundary tags, region headers, page links) in this
// space, so space overhead and locality are measured rather than modelled.
// Every load and store costs one simulated cycle, charged to the accounting
// mode active at the time, and is optionally pushed through a cache
// simulator to obtain stall cycles.
package mem

import (
	"fmt"
	"math/rand"

	"regions/internal/cachesim"
	"regions/internal/stats"
)

// Addr is a simulated 32-bit byte address. Address 0 is the nil pointer and
// is never mapped.
type Addr = uint32

// Word is the 32-bit contents of one aligned memory word.
type Word = uint32

const (
	// PageSize is the simulated page size, as in the paper's allocators.
	PageSize = 4096
	// WordSize is the machine word size in bytes.
	WordSize = 4
	// PageWords is the number of words per page.
	PageWords = PageSize / WordSize
	// PageShift converts between addresses and page numbers.
	PageShift = 12

	// AppComputeFactor is the cycles charged per application-mode memory
	// access: one for the access itself plus surrounding ALU and control
	// work. Typical RISC instruction mixes run several non-memory
	// instructions per load or store; without this factor the fixed-cost
	// pieces of memory management (e.g. the paper's 16/23-instruction
	// write barriers) would look several times more expensive relative to
	// the program than they did on the paper's machine. Memory-management
	// modes are memory-bound and charge one cycle per access.
	AppComputeFactor = 4
)

type page struct {
	words [PageWords]Word
}

// Space is one simulated address space. It is not safe for concurrent use;
// each experiment run owns its own Space.
type Space struct {
	pages []*page // index = page number; only page 0 is unmapped (nil)

	// os is the MapPages tally, allocated apart from the space so a
	// metrics source can hold it without holding the pages.
	os *OSCounts

	mode  stats.Mode
	c     *stats.Counters
	cache *cachesim.Cache

	// charge disables cycle accounting when false (used while an allocator
	// initializes pages it has not yet handed to anyone).
	charge bool
	// Each access adds inc to *cyc, the current mode's cycle counter. inc is
	// set by SetMode and Uncharged (setCharge) and is 0 while uncharged, so
	// an access makes no mode test.
	cyc *uint64
	inc uint64

	// Failure model (see fault.go): an optional hard page limit plus an
	// optional injected fault plan, and the bookkeeping of refused calls.
	pageLimit int
	plan      *FaultPlan
	planRNG   *rand.Rand
	planCalls uint64
	lastFail  *MapFailure

	// unmeter removes the counts' registration with a metrics registry
	// (see metrics.go).
	unmeter func()
}

// NewSpace returns an empty address space whose accesses are charged to c.
// Page 0 is reserved so that address 0 stays invalid.
func NewSpace(c *stats.Counters) *Space {
	s := &Space{
		pages:  make([]*page, 1, 1024),
		os:     &OSCounts{},
		c:      c,
		charge: true,
	}
	s.setCharge()
	return s
}

// AttachCache routes subsequent accesses through the given cache model.
func (s *Space) AttachCache(cache *cachesim.Cache) { s.cache = cache }

// Cache returns the attached cache model, or nil.
func (s *Space) Cache() *cachesim.Cache { return s.cache }

// Counters returns the counters this space charges cycles to.
func (s *Space) Counters() *stats.Counters { return s.c }

// SetMode switches the accounting mode for subsequent accesses and returns
// the previous mode so callers can restore it:
//
//	defer s.SetMode(s.SetMode(stats.ModeAlloc))
func (s *Space) SetMode(m stats.Mode) stats.Mode {
	old := s.mode
	s.mode = m
	s.setCharge()
	return old
}

// setCharge recomputes the per-access charge from the mode and the charge
// flag.
func (s *Space) setCharge() {
	s.cyc = &s.c.Cycles[s.mode]
	switch {
	case !s.charge:
		s.inc = 0
	case s.mode == stats.ModeApp:
		s.inc = AppComputeFactor
	default:
		s.inc = 1
	}
}

// Mode returns the current accounting mode.
func (s *Space) Mode() stats.Mode { return s.mode }

// MappedBytes returns the total memory requested from the simulated OS.
// It never shrinks: like sbrk, the simulated OS only grows.
func (s *Space) MappedBytes() uint64 { return s.os.MappedBytes }

// MapPages maps n fresh zeroed pages contiguously and returns the address of
// the first. It returns 0 — the never-mapped nil address — when the simulated
// OS refuses the request: the 32-bit address space is exhausted, a page limit
// (SetPageLimit) is reached, or an installed FaultPlan injects a failure.
// Allocators must treat 0 as out-of-memory and surface a typed error (see
// Space.OOM); a non-positive count is still an API-misuse panic.
func (s *Space) MapPages(n int) Addr {
	if n <= 0 {
		panic("mem: MapPages of non-positive count")
	}
	s.os.MapCalls++
	if cause := s.refuse(n); cause != "" {
		s.os.MapFails++
		s.os.FailsByCause[causeIndex(cause)]++
		s.lastFail = &MapFailure{Call: s.os.MapCalls, Pages: n, Mapped: s.os.MappedBytes, Cause: cause}
		return 0
	}
	first := len(s.pages)
	for i := 0; i < n; i++ {
		s.pages = append(s.pages, &page{})
	}
	s.os.MappedBytes += uint64(n) * PageSize
	return Addr(first) << PageShift
}

// Mapped reports whether a is inside a mapped page. Pages are only ever
// appended, so page 0 is the one unmapped slot below NumPages.
func (s *Space) Mapped(a Addr) bool {
	p := a >> PageShift
	return p > 0 && int(p) < len(s.pages)
}

// NumPages returns the number of page slots, including the reserved page 0.
func (s *Space) NumPages() int { return len(s.pages) }

// AccessError is the panic value of an access to an unaligned or unmapped
// address: a load or store that is not word-aligned, or any access outside
// the mapped pages (page 0, which holds the nil address, or past the last
// mapped page). The faulting access charges no cycle and leaves the cache
// model untouched.
type AccessError struct {
	Addr Addr // the faulting address
}

// Error implements error.
func (e AccessError) Error() string {
	if e.Addr&(WordSize-1) != 0 {
		return fmt.Sprintf("mem: unaligned access at %#x", e.Addr)
	}
	return fmt.Sprintf("mem: access to unmapped address %#x", e.Addr)
}

// page returns the page holding the word-aligned address a, or panics with
// an AccessError. It is small enough to inline into every access; keep
// formatting out of it.
func (s *Space) page(a Addr) *page {
	p := a >> PageShift
	if a&(WordSize-1) != 0 || p == 0 || int(p) >= len(s.pages) {
		panic(AccessError{Addr: a})
	}
	return s.pages[p]
}

// access charges one access at a to the current mode and, while charged,
// pushes it through the cache model. Callers check the address first, so a
// faulting access leaves no trace.
func (s *Space) access(a Addr, write bool) {
	*s.cyc += s.inc
	if s.cache != nil && s.inc != 0 {
		r, w := s.cache.Access(a, write)
		s.c.ReadStalls += r
		s.c.WriteStalls += w
	}
}

// Load returns the word at the 4-byte-aligned address a.
func (s *Space) Load(a Addr) Word {
	p := s.page(a)
	s.access(a, false)
	return p.words[(a%PageSize)/WordSize]
}

// Store writes v to the 4-byte-aligned address a.
func (s *Space) Store(a Addr, v Word) {
	p := s.page(a)
	s.access(a, true)
	p.words[(a%PageSize)/WordSize] = v
}

// LoadByte returns the byte at address a (no alignment requirement).
// Byte order within a word is little-endian.
func (s *Space) LoadByte(a Addr) byte {
	w := s.Load(a &^ (WordSize - 1))
	return byte(w >> (8 * (a & (WordSize - 1))))
}

// StoreByte writes b at address a, preserving the other bytes of the word.
func (s *Space) StoreByte(a Addr, b byte) {
	aligned := a &^ Addr(WordSize-1)
	shift := 8 * (a & (WordSize - 1))
	w := s.Load(aligned)
	w = w&^(0xff<<shift) | Word(b)<<shift
	s.Store(aligned, w)
}

// ZeroRange zeroes size bytes starting at a (both word-aligned), charging
// one cycle per word as the paper's ralloc clearing does.
func (s *Space) ZeroRange(a Addr, size int) {
	for off := 0; off < size; off += WordSize {
		s.Store(a+Addr(off), 0)
	}
}

// ZeroPageFree zeroes the page containing a without charging cycles. It is
// used when an allocator recycles a page it owns: the paper's region library
// reuses pages from its free page list, and freshly OS-mapped pages arrive
// zeroed either way.
func (s *Space) ZeroPageFree(a Addr) {
	*s.page(a &^ (PageSize - 1)) = page{}
}

// PoisonWord fills freed pages (PoisonPageFree) so that reads through
// dangling pointers return an unmistakable pattern and stray writes into
// freed pages are detectable by a verifier.
const PoisonWord Word = 0xdeadbeef

// PoisonPageFree fills the page containing a with PoisonWord without
// charging cycles. Allocators call it when a page returns to a free list;
// pages are re-zeroed (ZeroPageFree) before reuse, so poisoning is
// observable only through dangling pointers.
func (s *Space) PoisonPageFree(a Addr) {
	*s.page(a &^ (PageSize - 1)) = poisonPage
}

// poisonPage is a page of PoisonWord, copied whole by PoisonPageFree and in
// part by PoisonRange. It is never written after initialisation.
var poisonPage = func() (p page) {
	for i := range p.words {
		p.words[i] = PoisonWord
	}
	return p
}()

// PoisonRange fills size bytes starting at the word-aligned address a with
// PoisonWord without charging cycles — the sub-page sibling of
// PoisonPageFree, used when an allocator retires one block inside a page it
// still owns (the region library's pooled string frees). size must be a
// multiple of WordSize and the range must not cross a page boundary.
func (s *Space) PoisonRange(a Addr, size int) {
	copy(s.pageWords(a, size), poisonPage.words[:])
}

// FirstNonPoison returns the address of the first word in the size bytes
// starting at the word-aligned address a that is not PoisonWord, or 0 when
// every word is poison. Like PoisonRange, size is a multiple of WordSize and
// the range stays within one page. It reads the page directly: it charges
// no cycle and does not touch the cache model, so verifiers can audit freed
// memory without perturbing the measurement.
func (s *Space) FirstNonPoison(a Addr, size int) Addr {
	for i, w := range s.pageWords(a, size) {
		if w != PoisonWord {
			return a + Addr(i)*WordSize
		}
	}
	return 0
}

// pageWords returns the words of the size-byte range at the word-aligned
// address a, which must lie within one mapped page.
func (s *Space) pageWords(a Addr, size int) []Word {
	base := (a % PageSize) / WordSize
	return s.page(a).words[base : base+Addr(size/WordSize)]
}

// Uncharged runs f with cycle accounting disabled. It exists for test
// oracles and statistics gathering that must not perturb measurements.
func (s *Space) Uncharged(f func()) {
	old := s.charge
	s.charge = false
	s.setCharge()
	defer func() {
		s.charge = old
		s.setCharge()
	}()
	f()
}
