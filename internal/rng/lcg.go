package rng

// LCG is the 32-bit linear congruential generator, with Numerical Recipes'
// multiplier and increment, that the paper applications and the synthetic
// allocation traces build their inputs from. Its value is its state: seed
// one by conversion, LCG(seed).
type LCG uint32

// Pick steps g and returns a value in [0, n): the state's top 24 bits
// modulo n.
func (g *LCG) Pick(n int) int {
	*g = *g*1664525 + 1013904223
	return int(*g>>8) % n
}
