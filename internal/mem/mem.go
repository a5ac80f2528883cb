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
//
// The host backs simulated pages the way a kernel backs anonymous memory.
// A page that is mapped, re-zeroed or freed points at one shared read-only
// page, of zeros or of PoisonWord, and gets a private 4 KB buffer only when
// a store changes one of its words. Buffers a freed page gives up are kept
// for the next first write, so a space never holds more buffers than the
// most pages it had written at once. Only this file touches page words:
// every write goes through the one own-on-write path (Store, ZeroRange,
// PoisonRange).
package mem

import (
	"fmt"
	"math/rand"
	"unsafe"

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

// shared holds the two pages every space in the process shares: zeroPage
// backs each page nobody has written since it was mapped or re-zeroed, and
// poisonPage each page nobody has written since it was freed. They are
// never written after initialisation: CheckSharedPages compares them with
// pristine, a copy no page points at.
var shared, pristine = sharedPages(), sharedPages()

// sharedPages returns the zero page and the poison page.
func sharedPages() (sh [2]page) {
	for i := range sh[1].words {
		sh[1].words[i] = PoisonWord
	}
	return sh
}

var zeroPage, poisonPage = &shared[0], &shared[1]

// isShared reports whether p is the zero page or the poison page. Every
// store asks, so it is one unsigned compare against the shared array; two
// pointer compares measured slower on the serving benchmark.
func isShared(p *page) bool {
	return uintptr(unsafe.Pointer(p))-uintptr(unsafe.Pointer(&shared)) < unsafe.Sizeof(shared)
}

// Space is one simulated address space. It is not safe for concurrent use;
// each experiment run owns its own Space.
type Space struct {
	pages []*page // index = page number; only page 0 is unmapped (nil)
	// spare holds the private buffers of pages that were re-zeroed or freed
	// since their last write, for the next first write to reuse. buffers
	// counts every buffer the space allocated.
	spare   []*page
	buffers int

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
// the first. The pages share the zero page, so mapping allocates no host
// memory for them until they are written. It returns 0 — the never-mapped
// nil address — when the simulated OS refuses the request: the 32-bit
// address space is exhausted, a page limit (SetPageLimit) is reached, or an
// installed FaultPlan injects a failure. Allocators must treat 0 as
// out-of-memory and surface a typed error (see Space.OOM); a non-positive
// count is still an API-misuse panic.
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
		s.pages = append(s.pages, zeroPage)
	}
	s.os.MappedBytes += uint64(n) * PageSize
	return Addr(first) << PageShift
}

// ResidentBytes returns the host bytes of the page buffers the space has
// allocated: those backing pages written since they were last mapped,
// re-zeroed or freed, and the spares they left. It never exceeds
// MappedBytes, and no metrics source reports it: it is the host's cost of
// the simulation, not a simulated quantity.
func (s *Space) ResidentBytes() uint64 { return uint64(s.buffers) * PageSize }

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
	return p.words[a/WordSize%PageWords]
}

// Store writes v to the 4-byte-aligned address a. A store into a shared
// page that changes its word first gives the page a private buffer; one
// that writes the word already there leaves the page shared.
func (s *Space) Store(a Addr, v Word) {
	p := s.page(a)
	s.access(a, true)
	if isShared(p) {
		s.storeShared(a, v)
		return
	}
	p.words[a/WordSize%PageWords] = v
}

// storeShared is Store's path into a shared page, kept out of Store so the
// path into a private page stays short.
func (s *Space) storeShared(a Addr, v Word) {
	i := a / WordSize % PageWords
	if s.pages[a>>PageShift].words[i] != v {
		s.own(a).words[i] = v
	}
}

// own gives the shared page holding a a private buffer with the same
// contents and returns it: a spare buffer if the space has one, else a new
// one.
func (s *Space) own(a Addr) *page {
	n := a >> PageShift
	sp := s.pages[n]
	var p *page
	if k := len(s.spare); k > 0 {
		p = s.spare[k-1]
		s.spare = s.spare[:k-1]
		if sp == zeroPage {
			*p = page{}
		}
	} else {
		p = new(page)
		s.buffers++
	}
	if sp == poisonPage {
		*p = *poisonPage
	}
	s.pages[n] = p
	return p
}

// share points the page holding a at the shared page sp, keeping the
// page's private buffer, if it had one, as a spare.
func (s *Space) share(a Addr, sp *page) {
	n := a >> PageShift
	if p := s.page(a &^ (PageSize - 1)); !isShared(p) {
		s.spare = append(s.spare, p)
	}
	s.pages[n] = sp
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

// ZeroRange zeroes the (size+3)/4 words starting at the word-aligned
// address a, charging one store per word as the paper's ralloc clearing
// does. It works a page at a time, with the charges, cache probes and
// words of a Store per word: one check and one charge per page, the
// cache model probed once per line (Cache.AccessRun), nothing written to
// a zero-backed page, and a poison-backed page owned before it is
// cleared. Pages are mapped whole, so a range that runs off the mapped
// pages faults at a page's first word, after the same charges as the
// word loop.
func (s *Space) ZeroRange(a Addr, size int) {
	for n := (size + WordSize - 1) / WordSize; n > 0; {
		p := s.page(a)
		i := a / WordSize % PageWords
		k := min(n, int(PageWords-i))
		*s.cyc += uint64(k) * s.inc
		if s.cache != nil && s.inc != 0 {
			r, w := s.cache.AccessRun(a, k, true)
			s.c.ReadStalls += r
			s.c.WriteStalls += w
		}
		if p == poisonPage {
			p = s.own(a)
		}
		if p != zeroPage {
			clear(p.words[i : i+Addr(k)])
		}
		a += Addr(k) * WordSize
		n -= k
	}
}

// ZeroPageFree zeroes the page containing a without charging cycles. It is
// used when an allocator recycles a page it owns: the paper's region library
// reuses pages from its free page list, and freshly OS-mapped pages arrive
// zeroed either way. The page shares the zero page until it is written, so
// zeroing copies nothing.
func (s *Space) ZeroPageFree(a Addr) { s.share(a, zeroPage) }

// PoisonWord fills freed pages (PoisonPageFree) so that reads through
// dangling pointers return an unmistakable pattern and stray writes into
// freed pages are detectable by a verifier.
const PoisonWord Word = 0xdeadbeef

// PoisonPageFree fills the page containing a with PoisonWord without
// charging cycles. Allocators call it when a page returns to a free list;
// pages are re-zeroed (ZeroPageFree) before reuse, so poisoning is
// observable only through dangling pointers. The page shares the poison
// page until it is written, so poisoning copies nothing, and a stray write
// gives the page a private copy that FirstNonPoison still finds.
func (s *Space) PoisonPageFree(a Addr) { s.share(a, poisonPage) }

// CheckSharedPages returns an error naming the first word of the shared zero
// or poison page that no longer holds its value, or nil. The two pages back
// every unwritten page of every space in the process, so a write into
// either would silently change them all.
func CheckSharedPages() error {
	for k, name := range [...]string{"zero", "poison"} {
		if shared[k] == pristine[k] {
			continue
		}
		for i, w := range shared[k].words {
			if want := pristine[k].words[i]; w != want {
				return fmt.Errorf("mem: shared %s page word %d is %#x, not %#x", name, i, w, want)
			}
		}
	}
	return nil
}

// PoisonRange fills size bytes starting at the word-aligned address a with
// PoisonWord without charging cycles — the sub-page sibling of
// PoisonPageFree, used when an allocator retires one block inside a page it
// still owns (the region library's pooled string frees). size must be a
// multiple of WordSize and the range must not cross a page boundary.
func (s *Space) PoisonRange(a Addr, size int) {
	p, ws := s.pageWords(a, size)
	if p == poisonPage {
		return
	}
	if p == zeroPage {
		s.own(a)
		_, ws = s.pageWords(a, size)
	}
	copy(ws, poisonPage.words[:])
}

// FirstNonPoison returns the address of the first word in the size bytes
// starting at the word-aligned address a that is not PoisonWord, or 0 when
// every word is poison. Like PoisonRange, size is a multiple of WordSize and
// the range stays within one page. It reads the page directly: it charges
// no cycle and does not touch the cache model, so verifiers can audit freed
// memory without perturbing the measurement. A freed page nobody wrote since
// is the shared poison page, answered without reading a word.
func (s *Space) FirstNonPoison(a Addr, size int) Addr {
	p, ws := s.pageWords(a, size)
	if p == poisonPage {
		return 0
	}
	for i, w := range ws {
		if w != PoisonWord {
			return a + Addr(i)*WordSize
		}
	}
	return 0
}

// pageWords returns the page holding the size-byte range at the
// word-aligned address a, which must lie within one mapped page, and the
// range's words.
func (s *Space) pageWords(a Addr, size int) (*page, []Word) {
	p := s.page(a)
	base := (a % PageSize) / WordSize
	return p, p.words[base : base+Addr(size/WordSize)]
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
