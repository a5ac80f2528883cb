// Package moss reimplements the paper's "moss" benchmark: a software
// plagiarism detection system (document fingerprinting by winnowing). The
// original program used malloc/free; the paper's region study made moss its
// locality showcase:
//
//	"The memory allocation pattern of moss is to alternately allocate a
//	small, frequently accessed object and a large, infrequently accessed
//	object. This pattern reduces memory locality among the small objects.
//	The 24% improvement in execution time in moss is obtained by using two
//	regions: one for the small objects and one for the large objects."
//
// The program fingerprints every submission with k-gram hashing and
// winnowing, builds a global fingerprint index of small posting nodes (each
// paired with a large, rarely-read context snippet), and then scores every
// pair of documents by shared fingerprints — a phase that walks the small
// postings intensively. RunRegion segregates small and large objects into
// two regions; RunSlowRegion is the paper's original one-region version.
package moss

import (
	_ "embed"
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/mem"
	"regions/internal/rng"
)

//go:embed malloc.go
var mallocSource string

//go:embed region.go
var regionSource string

// Fingerprinting parameters (Schleimer, Wilkerson, Aiken's winnowing).
const (
	kGram       = 16  // characters per k-gram
	window      = 8   // winnowing window (hashes)
	idxBuckets  = 512 // fingerprint index hash buckets
	snippetLen  = 240 // bytes of context kept per fingerprint (the large object)
	matchThresh = 10  // shared fingerprints to report a pair
)

// App returns the moss benchmark descriptor.
func App() appkit.App {
	return appkit.App{
		Name:         "moss",
		DefaultScale: 48, // synthetic student submissions
		Malloc:       RunMalloc,
		Region:       RunRegion,
		SlowRegion:   RunSlowRegion,
		MallocSource: mallocSource,
		RegionSource: regionSource,
	}
}

// Inputs generates scale synthetic student submissions. Some pairs share
// plagiarized blocks, so the detector has real matches to find.
func Inputs(scale int) [][]byte {
	idioms := make([]string, 40)
	g := rng.LCG(0x5eed)
	for i := range idioms {
		idioms[i] = fmt.Sprintf("for (i = 0; i < n%d; i++) { total_%d += buf[i] * %d; }\n",
			g.Pick(10), g.Pick(10), 3+g.Pick(97))
	}
	docs := make([][]byte, scale)
	for d := range docs {
		dg := rng.LCG(0xd0c + d*2654435761)
		var out []byte
		out = append(out, fmt.Sprintf("/* submission %d */\n", d)...)
		for line := 0; line < 60; line++ {
			switch {
			case dg.Pick(10) < 4:
				out = append(out, idioms[dg.Pick(len(idioms))]...)
			default:
				out = append(out, fmt.Sprintf("int v_%d_%d = f_%d(x_%d + %d);\n",
					d, line, dg.Pick(30), dg.Pick(30), dg.Pick(1000))...)
			}
		}
		docs[d] = out
	}
	// Plagiarized pairs: document d copies a big block from d - scale/3.
	for d := scale / 3; d < scale && scale >= 6; d += scale / 3 {
		src := docs[d-scale/3]
		block := src[len(src)/4 : len(src)/4+len(src)/2]
		docs[d] = append(docs[d], block...)
	}
	return docs
}

// fingerprint is one winnowed (hash, position) pair of a document.
type fingerprint struct {
	hash uint32
	pos  int
}

// normalizeByte lowercases letters and maps everything non-alphanumeric to
// zero (skipped), so renaming whitespace or layout cannot hide copying.
func normalizeByte(b byte) byte {
	switch {
	case b >= 'a' && b <= 'z' || b >= '0' && b <= '9':
		return b
	case b >= 'A' && b <= 'Z':
		return b - 'A' + 'a'
	}
	return 0
}

// scratch is one run's host buffers for fingerprinting, reused from
// document to document.
type scratch struct {
	norm   []byte
	hashes []uint32
	fps    []fingerprint
}

// fingerprintDoc reads the document out of the heap, normalizing it as it
// goes, and returns its winnowed fingerprints. The next call reuses the
// slice.
func (s *scratch) fingerprintDoc(sp *mem.Space, text appkit.Ptr) []fingerprint {
	n := int(sp.Load(text + txtLen))
	norm := s.norm[:0]
	for i := 0; i < n; i += 4 {
		w := sp.Load(text + txtBytes + appkit.Ptr(i))
		for k := 0; k < 4 && i+k < n; k++ {
			if c := normalizeByte(byte(w >> (8 * k))); c != 0 {
				norm = append(norm, c)
			}
		}
	}
	s.norm = norm
	if len(norm) < kGram {
		return nil
	}
	// Rolling polynomial hash over k-gram windows.
	const base = 1000003
	var pow uint32 = 1
	for i := 0; i < kGram-1; i++ {
		pow *= base
	}
	var h uint32
	for i := 0; i < kGram; i++ {
		h = h*base + uint32(norm[i])
	}
	hashes := append(s.hashes[:0], h)
	for i := kGram; i < len(norm); i++ {
		h = (h - uint32(norm[i-kGram])*pow) * base
		h += uint32(norm[i])
		hashes = append(hashes, h)
	}
	s.hashes = hashes
	s.fps = winnow(hashes, s.fps[:0])
	return s.fps
}

// winnow selects fingerprints from the rolling k-gram hashes: in each
// window of w consecutive hashes, record the rightmost minimal hash (once).
// It appends them to fps.
func winnow(hashes []uint32, fps []fingerprint) []fingerprint {
	lastPos := -1
	for i := 0; i+window <= len(hashes); i++ {
		minIdx := i
		for j := i + 1; j < i+window; j++ {
			if hashes[j] <= hashes[minIdx] {
				minIdx = j
			}
		}
		if minIdx != lastPos {
			fps = append(fps, fingerprint{hashes[minIdx], minIdx})
			lastPos = minIdx
		}
	}
	return fps
}

// pairKey packs a document pair into one comparable value.
func pairKey(a, b int) uint32 { return uint32(a)<<16 | uint32(b) }

// checksum folds pair scores and totals into one comparable value.
func checksum(postings int, matches []uint32) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for k := 0; k < 4; k++ {
			h = (h ^ (v & 0xff)) * 16777619
			v >>= 8
		}
	}
	mix(uint32(postings))
	mix(uint32(len(matches)))
	for _, m := range matches {
		mix(m)
	}
	return h
}
