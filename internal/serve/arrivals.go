package serve

import (
	"math"
	"math/rand"
)

// The arrival process: open-loop, seeded, Poisson with optional burst
// phases. Open-loop means arrival times are drawn up front from the seeded
// PRNG and never react to how the server is doing — the standard way to
// expose tail latency, since a closed loop would politely slow its offered
// load exactly when the server struggles. Everything here is host-side
// modelling: drawing the schedule charges no simulated cycles, and the same
// seed always yields the same schedule, profiles, and weights, which is
// what makes a whole serving run bit-reproducible.

// session is one request: its arrival time on the simulated clock, the
// profile and weight drawn for it, its home shard, and — filled in as it
// flows through the system — its outcome. Run draws the whole schedule as
// one []session, so the fields are as narrow as their ranges allow.
type session struct {
	arrival uint64 // simulated cycles
	// latency is completion - arrival on the modelled clock, set when the
	// session completes (outcomeOK): the population Result's quantiles read.
	latency uint64
	// sweepCycles is the simulated cost of the idle-gap sweep slices
	// serveOne ran before this session's service; account subtracts it
	// from the measured task window so sweeping never bills a session.
	sweepCycles uint64
	prof        *Profile
	// rec is the session's phase record, allocated at admission under
	// Config.Spans and nil otherwise (see spans.go).
	rec *phaseRecord

	id    int32
	shard int32
	// tenant is the session's tenant id in tenant mode (Config.Tenants > 0),
	// -1 otherwise. Tenant-mode sessions are homed on their tenant's shard
	// rather than round-robin, so a skewed tenant draw produces the shard
	// imbalance the resize barrier exists to fix.
	tenant int32
	weight uint8 // 1-3 size multiplier applied to every site count

	outcome uint8
	waited  bool // entered the modelled queue (nonzero queue wait)
}

// Session outcomes.
const (
	outcomePending uint8 = iota
	outcomeOK
	outcomeShedQueue // rejected at admission: modelled queue full
	outcomeShedOOM   // admitted, then aborted by a refused page mapping
)

// genSessions draws the whole arrival schedule for cfg: exponential
// inter-arrival gaps at cfg.Rate arrivals per simulated Mcycle, multiplied
// by cfg.BurstFactor whenever the clock is inside a burst window (the first
// BurstLen cycles of every BurstEvery-cycle period). Profiles are drawn by
// weight and each session gets a 1-3x size weight, modelling the light/heavy
// request mix every real service sees. Sessions come out in arrival order,
// assigned round-robin to shards, so each shard's pinned FIFO queue replays
// its own arrival-ordered stream.
func genSessions(cfg Config) []session {
	rng := rand.New(rand.NewSource(cfg.Seed))
	profiles := Profiles()
	if cfg.Profile != "" {
		// Run validated the name; a single-profile run still draws from the
		// PRNG in pickProfile so weights stay on the same stream.
		profiles = []*Profile{profileByName(cfg.Profile)}
	}
	total := 0
	for _, p := range profiles {
		total += p.Weight
	}
	out := make([]session, cfg.Sessions)
	t := 0.0
	for i := range out {
		rate := cfg.Rate / 1e6 // arrivals per cycle
		if cfg.BurstEvery > 0 &&
			math.Mod(t, float64(cfg.BurstEvery)) < float64(cfg.BurstLen) {
			rate *= cfg.BurstFactor
		}
		t += rng.ExpFloat64() / rate
		s := &out[i]
		*s = session{
			id:      int32(i),
			arrival: uint64(t),
			prof:    pickProfile(rng, profiles, total),
			weight:  uint8(1 + rng.Intn(3)),
			shard:   int32(i % cfg.Shards),
			tenant:  -1,
		}
		// Tenant draws come after every legacy draw so a Tenants == 0 config
		// consumes exactly the PRNG stream it always did: old seeds keep
		// reproducing old schedules bit for bit.
		if cfg.Tenants > 0 {
			tenant := pickTenant(rng, cfg.Tenants)
			s.tenant = int32(tenant)
			s.shard = int32(tenantHome(tenant, cfg.Tenants, cfg.Shards))
		}
	}
	return out
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
