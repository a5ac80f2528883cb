package serve

import (
	"testing"

	"regions/internal/expotest"
	"regions/internal/metrics"
)

// TestServeExpositionGolden runs TestServeGolden's four configurations
// metered and pins each registry's exposition byte for byte. Two kinds of
// series are left out. regions_mem_mapped_bytes is left out everywhere,
// since every run has several shards and the registry once kept whichever
// shard mapped last. On the resize run the translation-cache and page-index
// counters are left out too: they once also counted the probes of the
// drain-time Verify, which runs after the engine has closed.
func TestServeExpositionGolden(t *testing.T) {
	resized := tenantConfig()
	resized.ResizeTo = 4
	for _, c := range []struct {
		name    string
		cfg     Config
		exclude []string
	}{
		{"mix", testConfig(), nil},
		{"bulk-deferred", Config{Sessions: 400, Seed: 1, Shards: 4, Rate: 6500,
			Profile: "bulk", DeferredDelete: true}, nil},
		{"strheavy", Config{Sessions: 400, Seed: 1, Shards: 2, Rate: 500,
			Profile: "strheavy"}, nil},
		{"tenants-resize", resized, []string{
			"regions_core_lrcache_hits_total", "regions_core_lrcache_misses_total",
			"regions_core_pageindex_lookups_total", "regions_core_pageindex_hits_total"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			c.cfg.Metrics = reg
			if _, err := Run(c.cfg); err != nil {
				t.Fatal(err)
			}
			expotest.Check(t, "testdata/expo_"+c.name+".golden", reg.Snapshot(),
				append(c.exclude, "regions_mem_mapped_bytes")...)
		})
	}
}
