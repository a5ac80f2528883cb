package serve

import (
	"math"
	"math/rand"

	"regions/internal/rng"
)

// The arrival process: open-loop, seeded, Poisson with optional burst
// phases. Open-loop means arrival times come from the seeded PRNG alone and
// never react to how the server is doing — the standard way to expose tail
// latency, since a closed loop would politely slow its offered load exactly
// when the server struggles. Each shard's goroutine draws the whole
// schedule on a stream of its own, one session at a time, and serves the
// sessions homed on its shard, so the host holds only the sessions in
// service, never the schedule, and no draw reads the simulated clock.
// Everything here is host-side modelling: drawing charges no simulated
// cycles, and the same seed always yields the same schedule, profiles, and
// weights, which is what makes a whole serving run bit-reproducible.

// session is one request: its arrival time on the simulated clock, the
// profile and weight drawn for it, and its home shard. A session is a
// value: its shard's goroutine draws it, and an admitted one becomes that
// shard's shardState.cur. What outlives its service is the run's latency
// slice and, under Config.Spans, its phase record.
type session struct {
	arrival uint64 // simulated cycles
	// sweepCycles is the simulated cost of the idle-gap sweep slices
	// serveOne ran before this session's service; account subtracts it
	// from the measured task window so sweeping never bills a session.
	sweepCycles uint64
	prof        *Profile

	id    int32
	shard int32
	// tenant is the session's tenant id in tenant mode (Config.Tenants > 0),
	// -1 otherwise. A tenant session is homed on its tenant's current shard
	// (serve stamps it into shard), rather than round-robin, so a skewed
	// tenant draw produces the shard imbalance the resize barrier exists to
	// fix.
	tenant int32
	weight uint8 // 1-3 size multiplier applied to every site count
}

// arrivals draws a run's schedule one session at a time: exponential
// inter-arrival gaps at cfg.Rate arrivals per simulated Mcycle, multiplied
// by cfg.BurstFactor whenever the clock is inside a burst window (the first
// BurstLen cycles of every BurstEvery-cycle period). Profiles are drawn by
// weight and each session gets a 1-3x size weight, modelling the light/heavy
// request mix every real service sees. Sessions come out in arrival order,
// assigned round-robin to shards.
type arrivals struct {
	cfg      Config
	rng      *rand.Rand
	profiles []*Profile
	total    int     // sum of the profiles' weights
	t        float64 // arrival clock, simulated cycles
	id       int32   // the next session's id
}

// newArrivals starts cfg's arrival stream.
func newArrivals(cfg Config) *arrivals {
	a := &arrivals{cfg: cfg, rng: rand.New(rng.New(cfg.Seed)), profiles: Profiles()}
	if cfg.Profile != "" {
		// Run validated the name; a single-profile run still draws from the
		// PRNG in pickProfile so weights stay on the same stream.
		a.profiles = []*Profile{profileByName(cfg.Profile)}
	}
	for _, p := range a.profiles {
		a.total += p.Weight
	}
	return a
}

// next draws the next session in arrival order.
func (a *arrivals) next() session {
	cfg := &a.cfg
	rate := cfg.Rate / 1e6 // arrivals per cycle
	if cfg.BurstEvery > 0 &&
		math.Mod(a.t, float64(cfg.BurstEvery)) < float64(cfg.BurstLen) {
		rate *= cfg.BurstFactor
	}
	a.t += a.rng.ExpFloat64() / rate
	s := session{
		id:      a.id,
		arrival: uint64(a.t),
		prof:    pickProfile(a.rng, a.profiles, a.total),
		weight:  uint8(1 + a.rng.Intn(3)),
		shard:   a.id % int32(cfg.Shards),
		tenant:  -1,
	}
	a.id++
	// Tenant draws come after every legacy draw so a Tenants == 0 config
	// consumes exactly the PRNG stream it always did: old seeds keep
	// reproducing old schedules bit for bit. serve homes a tenant session
	// on its tenant's current shard.
	if cfg.Tenants > 0 {
		s.tenant = int32(pickTenant(a.rng, cfg.Tenants))
	}
	return s
}

// pickTenant draws a tenant id under a triangular skew: tenant 0 carries
// weight n, tenant n-1 weight 1. The hot tenants all land on the low
// shards under the block home rule (see tenantHome), which is what makes
// the pre-resize phase genuinely imbalanced rather than merely random.
func pickTenant(rng *rand.Rand, n int) int {
	k := rng.Intn(n * (n + 1) / 2)
	for t, w := 0, n; ; t, w = t+1, w-1 {
		if k < w {
			return t
		}
		k -= w
	}
}

// pickProfile draws one profile by weight.
func pickProfile(rng *rand.Rand, profiles []*Profile, total int) *Profile {
	n := rng.Intn(total)
	for _, p := range profiles {
		if n < p.Weight {
			return p
		}
		n -= p.Weight
	}
	return profiles[len(profiles)-1]
}
