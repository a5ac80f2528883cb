package shard

import (
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/expotest"
	"regions/internal/metrics"
)

// recycleTask allocates and frees a few strings (the pool recycles them),
// a scanned object, and a two-page blob in a fresh region, then deletes it.
func recycleTask(seed uint32) Task {
	return Task{
		Name: "recycle",
		Run: func(e appkit.RegionEnv) uint32 {
			sp := e.Space()
			r := e.NewRegion()
			cln := e.SizeCleanup(16)
			sum := seed
			for i := 0; i < 6; i++ {
				s := e.RstrAlloc(r, 60)
				sp.Store(s, seed+uint32(i))
				sum = sum*31 + sp.Load(s)
				e.RstrFree(r, s, 60)
			}
			p := e.Ralloc(r, 16, cln)
			sp.Store(p, sum)
			b := e.RstrAlloc(r, 5000)
			sp.Store(b, sum)
			sum = sum*31 + sp.Load(b)
			if !e.DeleteRegion(r) {
				panic("recycle task: region not deletable")
			}
			return sum
		},
	}
}

// TestEngineExpositionGolden pins a metered two-shard engine's exposition
// byte for byte: pinned placement, deferred deletion, string recycling and
// one migration of a region that carries parked string blocks.
// regions_mem_mapped_bytes is left out: the registry once kept whichever
// shard mapped last, which depended on thread timing.
func TestEngineExpositionGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	eng := NewEngine(WithShards(2), WithMetrics(reg), WithDeferredDelete(2, 8))
	registerSizeCleanups(t, eng, 8, 16)
	var tenant *core.Region
	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		tenant, _ = buildChain(rt, 40)
		for i := 0; i < 3; i++ {
			rt.RstrFree(tenant, rt.RstrAlloc(tenant, 60), 60)
		}
	}); err != nil {
		t.Fatal(err)
	}
	batch := func(from, n int) {
		var ts []Task
		for i := from; i < from+n; i++ {
			tk := recycleTask(uint32(i))
			tk.Home, tk.Pin = i%2+1, true
			ts = append(ts, tk)
		}
		submitAll(eng, ts)
	}
	batch(0, 24)
	if _, err := eng.MigrateRegion(tenant, 0, 1); err != nil {
		t.Fatal(err)
	}
	batch(24, 24)
	if agg := eng.Close(); agg.Failures != 0 {
		t.Fatalf("%d task failures", agg.Failures)
	}
	expotest.Check(t, "testdata/expo_engine.golden", reg.Snapshot(), "regions_mem_mapped_bytes")
}
