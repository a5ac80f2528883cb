package appkit

import "regions/internal/mem"

// StoreBytes writes b into simulated memory starting at the word-aligned
// address p, packing four bytes per word (little-endian). The trailing
// partial word, if any, is zero-padded.
func StoreBytes(sp *mem.Space, p Ptr, b []byte) {
	if p%mem.WordSize != 0 {
		panic("appkit: StoreBytes at unaligned address")
	}
	i := 0
	for ; i+4 <= len(b); i += 4 {
		w := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
		sp.Store(p+Ptr(i), w)
	}
	if i < len(b) {
		var w uint32
		for k := 0; i+k < len(b); k++ {
			w |= uint32(b[i+k]) << (8 * k)
		}
		sp.Store(p+Ptr(i), w)
	}
}

// LoadBytes reads n bytes from the word-aligned address p.
func LoadBytes(sp *mem.Space, p Ptr, n int) []byte {
	if p%mem.WordSize != 0 {
		panic("appkit: LoadBytes at unaligned address")
	}
	b := make([]byte, n)
	for i := 0; i < n; i += 4 {
		w := sp.Load(p + Ptr(i))
		for k := 0; k < 4 && i+k < n; k++ {
			b[i+k] = byte(w >> (8 * k))
		}
	}
	return b
}

// EqualBytes reports whether the n bytes at the word-aligned address p
// equal s. It loads every word LoadBytes(sp, p, n) would, with no early
// exit, so comparing a name in place costs the simulated program what
// copying it out did.
func EqualBytes(sp *mem.Space, p Ptr, n int, s string) bool {
	if p%mem.WordSize != 0 {
		panic("appkit: EqualBytes at unaligned address")
	}
	eq := n == len(s)
	for i := 0; i < n; i += 4 {
		w := sp.Load(p + Ptr(i))
		for k := 0; k < 4 && i+k < n; k++ {
			eq = eq && i+k < len(s) && byte(w>>(8*k)) == s[i+k]
		}
	}
	return eq
}

// BytesWords returns the number of words needed to store n bytes.
func BytesWords(n int) int { return (n + mem.WordSize - 1) / mem.WordSize }

// App describes one of the paper's six benchmark programs: a malloc/free
// variant (the "original") and a region variant (the "modified" program).
// Both must compute the same checksum so the harness can cross-check them.
type App struct {
	Name string
	// DefaultScale is the workload size used by the paper-reproduction
	// harness; tests may use smaller scales.
	DefaultScale int
	// Malloc runs the malloc/free variant. Under the GC environment the
	// frees it performs are statistics-only no-ops.
	Malloc func(e MallocEnv, scale int) uint32
	// Region runs the region variant.
	Region func(e RegionEnv, scale int) uint32
	// SlowRegion, if non-nil, is a deliberately locality-poor region
	// organization (the paper's original moss region version).
	SlowRegion func(e RegionEnv, scale int) uint32
	// MallocSource and RegionSource hold the embedded source text of the
	// two variants, diffed for Table 1.
	MallocSource string
	RegionSource string
	// UsesEmulation marks apps that were originally region-based
	// (mudlle, lcc), whose malloc measurements use the emulation library
	// in the paper. For them, Malloc may be nil and the harness runs the
	// Region variant over an emulation environment instead.
	UsesEmulation bool
}
