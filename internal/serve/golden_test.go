package serve

import "testing"

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

// TestServeGolden pins four small seed-1 runs — the default mix, bulk with
// deferred deletion, strheavy with the string pool, and eight tenants
// resized 2→4 — to recorded values. Update them only for a change that
// means to alter simulated numbers, and say so in the change.
func TestServeGolden(t *testing.T) {
	resized := tenantConfig()
	resized.ResizeTo = 4
	for _, c := range []struct {
		name string
		cfg  Config
		want golden
	}{
		{"mix", testConfig(), golden{Checksum: 0xdf90d7f0, Mean: 6775, P99: 22937,
			MakespanCycles: 801410, MappedBytes: 1048576}},
		{"bulk-deferred", Config{Sessions: 400, Seed: 1, Shards: 4, Rate: 6500,
			Profile: "bulk", DeferredDelete: true}, golden{Checksum: 0xb2d67154, Mean: 905, P99: 3640,
			MakespanCycles: 56375, MappedBytes: 3260416}},
		{"strheavy", Config{Sessions: 400, Seed: 1, Shards: 2, Rate: 500,
			Profile: "strheavy"}, golden{Checksum: 0x9c804ea5, Mean: 8344, P99: 31278,
			MakespanCycles: 726023, MappedBytes: 622592}},
		{"tenants-resize", resized, golden{Checksum: 0xfe859ea5, Mean: 9598, P99: 56893,
			MakespanCycles: 7974076, MappedBytes: 1048576,
			TenantChecksum: 0xab50ff6d, Migrations: 6, MigratedPages: 29}},
	} {
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
