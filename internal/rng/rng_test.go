package rng

import (
	"math"
	"math/rand"
	"testing"
)

// twinDraws is how many draws each seed's twin run compares.
const twinDraws = 100_000

// twinSeeds are the seeds at the edges of the seed normalization (0 and
// every value congruent to it, ±1, the replacement for 0, the modulus and
// its neighbours, the int64 extremes) and 1,000 drawn from a fixed
// generator.
func twinSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, zeroSeed, modulus - 1, modulus, 1 << 31, -modulus,
		1 << 32, math.MinInt64, math.MaxInt64,
	}
	g := rand.New(rand.NewSource(1998))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// TestTwinOfMathRand holds the clone to math/rand bit for bit: for every
// seed, the same interleaving of every draw the simulator makes (and the
// source's own Uint64 and Int63) returns the same values.
func TestTwinOfMathRand(t *testing.T) {
	for _, seed := range twinSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for i := 0; i < twinDraws; i++ {
			var w, g float64
			switch i % 6 {
			case 0:
				w, g = float64(want.Uint64()), float64(got.Uint64())
			case 1:
				w, g = float64(want.Int63()), float64(got.Int63())
			case 2:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			case 3:
				n := 1 + i%1000
				w, g = float64(want.Intn(n)), float64(got.Intn(n))
			case 4:
				w, g = want.Float64(), got.Float64()
			case 5:
				w, g = float64(want.Intn(3)), float64(got.Intn(3))
			}
			if w != g {
				t.Fatalf("seed %d: draw %d (kind %d) = %v, math/rand gives %v", seed, i, i%6, g, w)
			}
		}
	}
}

// TestFillBoundaries compares raw draws across the draw counts where the
// lazy fill changes pattern (two words a draw before 274, one before 335,
// none after), then reseeds both sources mid-fill: a reseeded source must
// refill every word it reads, whatever the last seed filled.
func TestFillBoundaries(t *testing.T) {
	counts := []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608}
	for _, n := range counts {
		for _, seed := range []int64{1, -7, 1 << 40} {
			want := rand.NewSource(seed).(rand.Source64)
			got := New(seed)
			for i := 0; i < n; i++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, g, w)
				}
			}
			want.Seed(seed + 1)
			got.Seed(seed + 1)
			for i := 0; i < 2*length; i++ {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d after %d draws, reseeded: draw %d = %#x, math/rand gives %#x",
						seed, n, i, g, w)
				}
			}
		}
	}
}

// BenchmarkSeedAndDraw seeds a source and draws three values, what a
// one-session serving run asks of its arrival stream, with math/rand's
// source and with the lazily seeded clone.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		src  func(int64) rand.Source
	}{
		{"math-rand", rand.NewSource},
		{"lazy", func(seed int64) rand.Source { return New(seed) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				r := rand.New(c.src(int64(i)))
				sink += r.ExpFloat64() + float64(r.Intn(17)+r.Intn(3))
			}
			benchSink = sink
		})
	}
}

var benchSink float64
