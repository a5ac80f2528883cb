package bench

import (
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/metrics"
	"regions/internal/serve"
)

// checkHistogramsAgainstSpine fails t unless every runtime histogram in snap
// counted exactly the events of the spine counter it shadows: the
// allocation-size histogram every allocation and byte, the region-lifetime
// histogram every deletion, the barrier-cycle histogram every region and
// global barrier, and the sweep-slice histogram every slice. The
// allocation sites must also sum to every allocation and byte. A moved
// observation site that drops or doubles one fails it.
func checkHistogramsAgainstSpine(t *testing.T, snap *metrics.Snapshot) {
	t.Helper()
	counter := func(name string) uint64 {
		v, ok := snap.Counter(name)
		if !ok {
			t.Fatalf("no %s counter", name)
		}
		return v
	}
	hist := func(name string) *metrics.HistogramValue {
		h, ok := snap.Histogram(name)
		if !ok {
			t.Fatalf("no %s histogram", name)
		}
		return h
	}
	if counter("regions_core_allocs_total") == 0 || counter("regions_core_regions_deleted_total") == 0 {
		t.Fatal("the run allocated or deleted nothing")
	}
	for _, c := range []struct {
		what      string
		got, want uint64
	}{
		{"alloc-size count against regions_core_allocs_total",
			hist("regions_core_alloc_size_bytes").Count, counter("regions_core_allocs_total")},
		{"alloc-size sum against regions_core_alloc_bytes_total",
			hist("regions_core_alloc_size_bytes").Sum, counter("regions_core_alloc_bytes_total")},
		{"region-lifetime count against regions_core_regions_deleted_total",
			hist("regions_core_region_lifetime_cycles").Count, counter("regions_core_regions_deleted_total")},
		{"barrier-cycle count against region plus global barriers",
			hist("regions_core_barrier_cycles").Count,
			counter("regions_core_barrier_region_total") + counter("regions_core_barrier_global_total")},
		{"sweep-slice count against regions_sweep_slices_total",
			hist("regions_sweep_slice_cycles").Count, counter("regions_sweep_slices_total")},
		{"site objects against regions_core_allocs_total",
			snap.CounterSum("regions_alloc_site_objects_total"), counter("regions_core_allocs_total")},
		{"site bytes against regions_core_alloc_bytes_total",
			snap.CounterSum("regions_alloc_site_bytes_total"), counter("regions_core_alloc_bytes_total")},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, want %d", c.what, c.got, c.want)
		}
	}
}

// TestHistogramsAgreeWithSpine checks the runtime histograms against the
// spine counters on metered runs of both kinds of owner: a lone runtime
// read directly (each paper application) and shard runtimes read through
// the copies the engine publishes (two-shard serving runs: the default
// mix, bulk with deferred deletion, which sweeps, strheavy, which recycles
// strings, and eight tenants resized from 2 to 4 shards, which migrates).
func TestHistogramsAgreeWithSpine(t *testing.T) {
	for _, app := range Apps() {
		t.Run(app.Name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			e := appkit.NewRegionEnv("safe", appkit.Config{Metrics: reg})
			app.Region(e, max(1, app.DefaultScale/16))
			e.Finalize()
			checkHistogramsAgainstSpine(t, reg.Snapshot())
		})
	}
	for _, c := range []struct {
		name string
		cfg  serve.Config
	}{
		{"serve-mix", serve.Config{Sessions: 400, Seed: 1, Shards: 2}},
		{"serve-bulk-deferred", serve.Config{Sessions: 400, Seed: 1, Shards: 2, Rate: 3250,
			Profile: "bulk", DeferredDelete: true}},
		{"serve-strheavy", serve.Config{Sessions: 400, Seed: 1, Shards: 2, Rate: 500, Profile: "strheavy"}},
		{"serve-tenants-resize", serve.Config{Sessions: 800, Seed: 1, Shards: 2, Rate: 300,
			Tenants: 8, ResizeTo: 4, ResizeAfter: 0.5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			c.cfg.Metrics = reg
			if _, err := serve.Run(c.cfg); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if v, _ := snap.Counter("regions_sweep_slices_total"); c.cfg.DeferredDelete && v == 0 {
				t.Error("the deferred run swept nothing")
			}
			if v, _ := snap.Counter("regions_migrations_total"); c.cfg.ResizeTo > 0 && v == 0 {
				t.Error("the resized run migrated nothing")
			}
			checkHistogramsAgainstSpine(t, snap)
		})
	}
}
