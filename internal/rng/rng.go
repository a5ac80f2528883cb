// Package rng is math/rand's default source, seeded lazily.
//
// math/rand's source is an additive lagged Fibonacci generator over 607
// words (x[n] = x[n-607] + x[n-273] mod 2^64). Seeding it fills all 607
// words from the seed's Park–Miller sequence, x(k+1) = 48271·x(k) mod
// (2^31 − 1): word i is x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i), XORed with
// a fixed 607-entry table. That is 1,841 dependent multiply-mod steps, and
// a run that draws a handful of numbers reads a handful of words.
//
// Since x(k) = seed·48271^k mod (2^31 − 1), any one word can be computed on
// its own from a table of powers. Source keeps the seed and fills each word
// the first time a draw reads it, so every draw returns what math/rand's
// source returns for the same seed, bit for bit, and rand.New(src) gives
// math/rand's ExpFloat64, Intn, Float64 and Int63 streams unchanged.
//
// The powers and the 607-entry table are built once per process. The table
// is not copied from math/rand: it is recovered from the first 607 outputs
// of rand.NewSource(1), whose seeding it is part of.
package rng

import (
	"math/rand"
	"sync"
)

const (
	length = 607 // words of state
	lag    = 273 // the short lag: Uint64 reads the words 607 and 273 draws back
	// fillDraws is the number of draws that read a word no draw has
	// written: the first lag read two such words, the next length-2·lag
	// one, and every later draw reads only words earlier draws wrote.
	fillDraws = length - lag

	modulus    = 1<<31 - 1 // Park–Miller: x(k+1) = multiplier·x(k) mod modulus
	multiplier = 48271
	// zeroSeed replaces a seed that is 0 modulo the modulus, as math/rand's
	// does: the Park–Miller sequence of 0 is all zeros.
	zeroSeed = 89482311
)

// tables is what a word's fill needs besides the seed: pow[i] is
// multiplier^(21+3i) mod modulus, the factor that takes a seed to its word
// i's first Park–Miller iterate, and cooked[i] is the table math/rand XORs
// into word i.
type tables struct {
	pow    [length]uint64
	cooked [length]uint64
}

// shared returns the process's tables, building them on first use.
var shared = sync.OnceValue(recoverTables)

// Source is math/rand's source with lazy seeding. It implements
// rand.Source64; the zero Source is not seeded, use New.
type Source struct {
	t *tables
	// tap and feed index vec as in math/rand: each draw steps both back one
	// word and adds vec[tap] into vec[feed].
	tap, feed int
	// filled counts the draws that filled a word, up to fillDraws.
	filled int
	seed   uint64 // in [1, modulus)
	vec    [length]uint64
}

// New returns a Source seeded with seed: the source rand.NewSource(seed)
// returns, without its seeding cost.
func New(seed int64) *Source {
	s := &Source{t: shared()}
	s.Seed(seed)
	return s
}

// Seed restarts the source at seed, as math/rand's Seed does. It fills no
// word.
func (s *Source) Seed(seed int64) {
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = length - lag
	s.filled = 0
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	if s.filled < fillDraws {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// fill computes the seeded words the current draw reads for the first time.
// Draw k (1-based) reads vec[334-k] and vec[607-k], modulo 607. Draws 1 to
// 273 read both first; draws 274 to 334 read vec[334-k] first and a word
// draw k-273 wrote at vec[607-k]; from draw 335 on, vec[feed] is a word draw
// k-334 read as its tap, and vec[tap] one draw k-273 wrote.
func (s *Source) fill() {
	s.filled++
	s.vec[s.feed] = s.word(s.feed)
	if s.filled <= lag {
		s.vec[s.tap] = s.word(s.tap)
	}
}

// word returns word i of the seeded state.
func (s *Source) word(i int) uint64 {
	return s.t.cooked[i] ^ parkMillerWord(s.seed*s.t.pow[i]%modulus)
}

// parkMillerWord packs x and its next two Park–Miller iterates y and z as
// math/rand's seeding does: x<<40 ^ y<<20 ^ z.
func parkMillerWord(x uint64) uint64 {
	y := x * multiplier % modulus
	z := y * multiplier % modulus
	return x<<40 ^ y<<20 ^ z
}

// recoverTables builds the powers, then reads the 607-entry table back out
// of math/rand's source seeded with 1. That source's first 607 draws
// determine its seeded state: a draw's result is written back where a
// later draw reads it 273 draws on, so each state word is a draw's result
// less an earlier result or state word. Seed 1's Park–Miller iterates are
// the powers themselves, so XORing them out of the state leaves the table.
func recoverTables() *tables {
	t := new(tables)
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = x * multiplier % modulus
	}
	for i := range t.pow {
		x = x * multiplier % modulus // x(21+3i)
		t.pow[i] = x
		x = x * multiplier % modulus * multiplier % modulus // x(23+3i)
	}

	src := rand.NewSource(1).(rand.Source64)
	var out [length + 1]uint64 // out[k] is draw k's result
	for k := 1; k <= length; k++ {
		out[k] = src.Uint64()
	}
	state := &t.cooked // the seeded state first, the table once XORed
	// Draws 274 to 607 add a result written 273 draws earlier to a state
	// word read for the first time: vec[334-k], modulo 607.
	for k := lag + 1; k <= length; k++ {
		state[(fillDraws-k+length)%length] = out[k] - out[k-lag]
	}
	// Draws 1 to 273 add two state words, vec[334-k] and vec[607-k]; the
	// loop above recovered the second.
	for k := 1; k <= lag; k++ {
		state[fillDraws-k] = out[k] - state[length-k]
	}
	for i := range state {
		state[i] ^= parkMillerWord(t.pow[i])
	}
	return t
}
