package serve

import (
	"testing"

	"regions/internal/trace"
)

// golden is a serving run's pinned outcome: the determinism gate's numbers
// frozen across commits, so a refactor of the engine or of Run that moves
// any session to another shard, reorders its work, or changes what it
// allocates fails here even when every same-commit comparison still agrees.
type golden struct {
	Checksum       uint32
	Mean, P99      uint64
	MakespanCycles uint64
	MappedBytes    uint64
	// Resize runs only.
	TenantChecksum uint32
	Migrations     uint64
	MigratedPages  uint64
}

// goldenRun is one pinned serving run.
type goldenRun struct {
	name string
	cfg  Config
	want golden
}

// goldenRuns are four small seed-1 runs — the default mix, bulk with
// deferred deletion, strheavy with the string pool, and eight tenants
// resized 2→4 — with their recorded outcomes.
func goldenRuns() []goldenRun {
	resized := tenantConfig()
	resized.ResizeTo = 4
	return []goldenRun{
		{"mix", testConfig(), golden{Checksum: 0xdf90d7f0, Mean: 6775, P99: 17451,
			MakespanCycles: 801410, MappedBytes: 1048576}},
		{"bulk-deferred", Config{Sessions: 400, Seed: 1, Shards: 4, Rate: 6500,
			Profile: "bulk", DeferredDelete: true}, golden{Checksum: 0xb2d67154, Mean: 905, P99: 2397,
			MakespanCycles: 56375, MappedBytes: 3260416}},
		{"strheavy", Config{Sessions: 400, Seed: 1, Shards: 2, Rate: 500,
			Profile: "strheavy"}, golden{Checksum: 0x9c804ea5, Mean: 8344, P99: 22281,
			MakespanCycles: 726023, MappedBytes: 622592}},
		{"tenants-resize", resized, golden{Checksum: 0xfe859ea5, Mean: 9598, P99: 43018,
			MakespanCycles: 7974076, MappedBytes: 1048576,
			TenantChecksum: 0xab50ff6d, Migrations: 6, MigratedPages: 29}},
	}
}

// TestServeGolden pins the golden runs to their recorded values. Update
// them only for a change that means to alter simulated numbers, and say so
// in the change.
func TestServeGolden(t *testing.T) {
	for _, c := range goldenRuns() {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := golden{
				Checksum:       res.Checksum,
				Mean:           res.Mean,
				P99:            res.P99,
				MakespanCycles: res.MakespanCycles,
				MappedBytes:    res.MappedBytes,
			}
			if c.cfg.ResizeTo > 0 {
				got.TenantChecksum = res.TenantChecksum
				got.Migrations = res.Migrations
				got.MigratedPages = res.MigratedPages
			}
			if got != c.want {
				t.Errorf("got  %+v\nwant %+v", got, c.want)
			}
		})
	}
}

// TestServeQuantilesExact checks that Result's latency quantiles are exact
// order statistics: on every golden run they equal trace.QuantileExact over
// the per-request latencies the span stream reconstructs, MaxCycles is the
// slowest of those requests, and no reported quantile exceeds it.
func TestServeQuantilesExact(t *testing.T) {
	for _, c := range goldenRuns() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.SpanTracer = trace.New(16*cfg.Sessions + 1024)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := trace.BuildSpanProfile(cfg.SpanTracer.Events(), cfg.SpanTracer.Stats().Dropped)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(p.Requests)) != res.Completed {
				t.Fatalf("spans hold %d requests, run completed %d", len(p.Requests), res.Completed)
			}
			lat := make([]uint64, len(p.Requests))
			var slowest uint64
			for i, r := range p.Requests {
				lat[i] = r.Latency()
				slowest = max(slowest, lat[i])
			}
			for _, q := range []struct {
				name string
				got  uint64
				q    float64
			}{{"p50", res.P50, 0.50}, {"p99", res.P99, 0.99}, {"p999", res.P999, 0.999}} {
				if want := trace.QuantileExact(lat, q.q); q.got != want {
					t.Errorf("%s = %d, exact %d", q.name, q.got, want)
				}
			}
			if res.MaxCycles != slowest {
				t.Errorf("max = %d, slowest span request %d", res.MaxCycles, slowest)
			}
			if !(res.P50 <= res.P99 && res.P99 <= res.P999 && res.P999 <= res.MaxCycles) {
				t.Errorf("want p50 <= p99 <= p999 <= max, got %d, %d, %d, %d",
					res.P50, res.P99, res.P999, res.MaxCycles)
			}
		})
	}
}
