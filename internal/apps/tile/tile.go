// Package tile reimplements the paper's "tile" benchmark: a program that
// automatically partitions text into subsections based on the frequency and
// grouping of words (a TextTiling-style algorithm). The original program
// used malloc/free; the paper's region version needed one local variable
// cleared to allow a region to be deleted.
//
// The program tokenizes the input, interns words in a hash table, splits
// the token stream into fixed-size blocks, and for every gap between blocks
// compares the word-frequency vectors of the windows on either side
// (cosine similarity). Gaps whose similarity is a sufficiently deep local
// minimum become section boundaries. Per-gap scratch tables make the
// program allocation-intensive, matching the paper's workload class.
package tile

import (
	_ "embed"

	"regions/internal/apps/appkit"
	"regions/internal/rng"
)

//go:embed malloc.go
var mallocSource string

//go:embed region.go
var regionSource string

// Algorithm parameters (shared by both variants so results match).
const (
	hashBuckets = 256
	blockTokens = 20 // tokens per block
	windowSize  = 6  // blocks per comparison window
)

// App returns the tile benchmark descriptor.
func App() appkit.App {
	return appkit.App{
		Name:         "tile",
		DefaultScale: 20, // the paper: twenty copies of a 14K text
		Malloc:       RunMalloc,
		Region:       RunRegion,
		MallocSource: mallocSource,
		RegionSource: regionSource,
	}
}

// Input produces the deterministic synthetic text for the given scale:
// scale concatenated copies of a multi-topic document (the paper used
// twenty copies of a 14 KB text). Topic shifts give the tiler real
// boundaries to find.
func Input(scale int) []byte {
	g := rng.LCG(20260706)
	doc := document(&g)
	out := make([]byte, 0, len(doc)*scale)
	for i := 0; i < scale; i++ {
		out = append(out, doc...)
	}
	return out
}

// topics are synthetic vocabularies; each text segment draws mostly from
// one topic plus common glue words, so adjacent segments differ.
var topics = [][]string{
	{"region", "page", "alloc", "pointer", "count", "scan", "frame", "stack", "delete", "cleanup", "heap", "word"},
	{"river", "stone", "valley", "cloud", "meadow", "birch", "trail", "summit", "lake", "fog", "moss", "fern"},
	{"matrix", "vector", "basis", "kernel", "tensor", "norm", "eigen", "rank", "trace", "field", "prime", "ring"},
	{"market", "price", "trade", "asset", "yield", "bond", "stock", "index", "rate", "fund", "risk", "margin"},
	{"violin", "sonata", "tempo", "chord", "melody", "rhythm", "opera", "octave", "minor", "major", "score", "aria"},
}

var glue = []string{"the", "a", "of", "and", "to", "in", "is", "it", "for", "with", "on", "as"}

func document(g *rng.LCG) []byte {
	var out []byte
	for seg := 0; seg < 10; seg++ {
		topic := topics[seg%len(topics)]
		for w := 0; w < 240; w++ {
			var word string
			if g.Pick(10) < 4 {
				word = glue[g.Pick(len(glue))]
			} else {
				word = topic[g.Pick(len(topic))]
			}
			out = append(out, word...)
			if g.Pick(12) == 0 {
				out = append(out, '.')
			}
			out = append(out, ' ')
		}
		out = append(out, '\n')
	}
	return out
}

// nextWord splits the first word, a maximal run of letters, off text and
// returns it with the text after it; word is nil once no word is left.
// This is reading the input file, in the paper's terms: both variants walk
// the host text with it, and a word is a slice of that text, so the walk
// allocates nothing. All per-word storage in the measured program goes
// through the allocators.
func nextWord(text []byte) (word, rest []byte) {
	start := 0
	for start < len(text) && !isAlpha(text[start]) {
		start++
	}
	end := start
	for end < len(text) && isAlpha(text[end]) {
		end++
	}
	if start == end {
		return nil, nil
	}
	return text[start:end], text[end:]
}

func isAlpha(b byte) bool { return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' }

func hashWord(w []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range w {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// isqrt returns the integer square root of v, used by the fixed-point
// cosine similarity so both variants avoid floating point entirely.
func isqrt(v uint64) uint32 {
	if v == 0 {
		return 0
	}
	x := uint64(1) << ((bits64(v) + 1) / 2)
	for {
		y := (x + v/x) / 2
		if y >= x {
			return uint32(x)
		}
		x = y
	}
}

func bits64(v uint64) uint {
	n := uint(0)
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// boundaries turns the per-gap similarity scores (scaled to 0..1000) into
// section boundaries: gaps whose "depth" below the neighbouring peaks —
// found by hill-climbing left and right — exceeds the threshold.
func boundaries(sims []uint32) []int {
	var out []int
	for i := range sims {
		j := i
		for j > 0 && sims[j-1] >= sims[j] {
			j--
		}
		leftPeak := sims[j]
		k := i
		for k+1 < len(sims) && sims[k+1] >= sims[k] {
			k++
		}
		rightPeak := sims[k]
		depth := (leftPeak - sims[i]) + (rightPeak - sims[i])
		if depth > 300 {
			out = append(out, i)
		}
	}
	return out
}

// checksum folds the analysis results into one comparable value.
func checksum(vocab uint32, tokens int, bounds []int) uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for k := 0; k < 4; k++ {
			h = (h ^ (v & 0xff)) * 16777619
			v >>= 8
		}
	}
	mix(vocab)
	mix(uint32(tokens))
	mix(uint32(len(bounds)))
	for _, b := range bounds {
		mix(uint32(b))
	}
	return h
}
