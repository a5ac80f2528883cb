package bench

import (
	"fmt"

	"regions/internal/metrics"
	"regions/internal/serve"
)

// The serving scenario embedded in the benchmark report: one fixed
// multi-tenant run of the internal/serve simulator, so the checked-in
// artifact gates tail latency under concurrency, not just batch throughput.
// Everything in the result is simulated cycles, so — like the micro
// sim-cycle columns — it diffs exactly across hosts.

// ServeScenarioSeed pins the embedded scenario's arrival schedule.
const ServeScenarioSeed = 1

// RunServeScenario runs the report's fixed serving scenario: sessions scale
// down with scaleDiv exactly like the app workloads, the rest of the
// configuration is the serve package's defaults (4 shards, 700
// arrivals/Mcycle, queue cap 64). reg may be nil.
func RunServeScenario(scaleDiv int, reg *metrics.Registry) (*serve.Result, error) {
	sessions := 8000 / scaleDiv
	if sessions < 100 {
		sessions = 100
	}
	return serve.Run(serve.Config{
		Sessions: sessions,
		Seed:     ServeScenarioSeed,
		Metrics:  reg,
	})
}

// ServeABRate is the offered load of the deferred-reclamation A/B: just
// under the synchronous mode's capacity for the bulk profile on 4 shards,
// where per-page reclamation inside the service window turns directly into
// queueing delay — the regime the deferral exists for.
const ServeABRate = 6500

// ServeABResult is the deferred-reclamation A/B embedded in the report: the
// same bulk-profile serving scenario run twice — synchronous deletion, then
// DeferredDelete — over identical seeds. RunServeAB enforces the mode's
// claims at build time: bit-identical checksums, and a deferred p999 no
// worse than the synchronous one.
type ServeABResult struct {
	Profile  string        `json:"profile"`
	Sessions int           `json:"sessions"`
	Seed     int64         `json:"seed"`
	Rate     float64       `json:"ratePerMcycle"`
	Sync     *serve.Result `json:"sync"`
	Deferred *serve.Result `json:"deferred"`
}

// RunServeAB runs the deferred-reclamation A/B scenario. It errors — rather
// than recording a report — when the two modes disagree on the checksum or
// the deferred run swept nothing, since either would make the A/B vacuous,
// and when the deferred p999 is above the synchronous one, the tail the
// deferral exists to protect. (serve.Run itself already fails a deferred
// run whose sweep debt is nonzero after drain.)
func RunServeAB(scaleDiv int, reg *metrics.Registry) (*ServeABResult, error) {
	sessions := 4000 / scaleDiv
	if sessions < 100 {
		sessions = 100
	}
	base := serve.Config{
		Sessions: sessions,
		Seed:     ServeScenarioSeed,
		Profile:  "bulk",
		Rate:     ServeABRate,
		Metrics:  reg,
	}
	syncRes, err := serve.Run(base)
	if err != nil {
		return nil, fmt.Errorf("bench: serve A/B sync run: %w", err)
	}
	dcfg := base
	dcfg.DeferredDelete = true
	defRes, err := serve.Run(dcfg)
	if err != nil {
		return nil, fmt.Errorf("bench: serve A/B deferred run: %w", err)
	}
	if syncRes.Checksum != defRes.Checksum {
		return nil, fmt.Errorf("bench: serve A/B checksum mismatch: sync %08x, deferred %08x — deferred deletion changed the allocation stream",
			syncRes.Checksum, defRes.Checksum)
	}
	if defRes.SweptPages == 0 {
		return nil, fmt.Errorf("bench: serve A/B deferred run swept no pages — deferral never engaged")
	}
	if defRes.P999 > syncRes.P999 {
		return nil, fmt.Errorf("bench: serve A/B deferred p999 %d above sync p999 %d — deferral is hurting the tail",
			defRes.P999, syncRes.P999)
	}
	return &ServeABResult{
		Profile:  base.Profile,
		Sessions: sessions,
		Seed:     base.Seed,
		Rate:     base.Rate,
		Sync:     syncRes,
		Deferred: defRes,
	}, nil
}

// StrABResult is the pooled-string-allocator A/B embedded in the report:
// the strheavy buffer-recycling scenario served with the pool (the default)
// and with NoStrPool, over identical seeds. Checksums are content sums, so
// the two arms must agree bit for bit while the pooled arm serves most
// string allocations from its free lists (Pooled.StrReuseRatio) and maps
// less memory from the simulated OS (MappedBytes).
type StrABResult struct {
	Profile  string        `json:"profile"`
	Sessions int           `json:"sessions"`
	Seed     int64         `json:"seed"`
	Rate     float64       `json:"ratePerMcycle"`
	Pooled   *serve.Result `json:"pooled"`
	NoPool   *serve.Result `json:"noPool"`
}

// RunStrAB runs the string-pool A/B scenario. It errors — rather than
// recording a report — when the arms disagree on the checksum, when the
// pooled arm reused nothing (the A/B would be vacuous), or when pooling
// increased OS traffic (the opposite of the pool's claim).
func RunStrAB(scaleDiv int, reg *metrics.Registry) (*StrABResult, error) {
	sessions := 4000 / scaleDiv
	if sessions < 100 {
		sessions = 100
	}
	base := serve.Config{
		Sessions: sessions,
		Seed:     ServeScenarioSeed,
		Profile:  "strheavy",
		Metrics:  reg,
	}
	pooled, err := serve.Run(base)
	if err != nil {
		return nil, fmt.Errorf("bench: string-pool A/B pooled run: %w", err)
	}
	ncfg := base
	ncfg.NoStrPool = true
	noPool, err := serve.Run(ncfg)
	if err != nil {
		return nil, fmt.Errorf("bench: string-pool A/B no-pool run: %w", err)
	}
	if pooled.Checksum != noPool.Checksum {
		return nil, fmt.Errorf("bench: string-pool A/B checksum mismatch: pooled %08x, no-pool %08x — pooling changed session results",
			pooled.Checksum, noPool.Checksum)
	}
	if pooled.StrReuse == 0 {
		return nil, fmt.Errorf("bench: string-pool A/B pooled run reused nothing — the pool never engaged")
	}
	if noPool.StrReuse != 0 {
		return nil, fmt.Errorf("bench: string-pool A/B no-pool run reports %d reuses — NoStrPool did not disable the pool",
			noPool.StrReuse)
	}
	if pooled.MappedBytes > noPool.MappedBytes {
		return nil, fmt.Errorf("bench: string-pool A/B pooled run mapped %d bytes, no-pool %d — pooling increased OS traffic",
			pooled.MappedBytes, noPool.MappedBytes)
	}
	return &StrABResult{
		Profile:  base.Profile,
		Sessions: sessions,
		Seed:     base.Seed,
		Rate:     pooled.Rate,
		Pooled:   pooled,
		NoPool:   noPool,
	}, nil
}
