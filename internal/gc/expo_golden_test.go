package gc_test

import (
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/apps/cfrac"
	"regions/internal/expotest"
	"regions/internal/metrics"
)

// TestCollectorExpositionGolden pins the exposition of one application run
// on the collector environment — the gc and mem series — byte for byte.
func TestCollectorExpositionGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	e := appkit.NewMallocEnv("GC", appkit.Config{Metrics: reg})
	cfrac.App().Malloc(e, 4)
	if e.Counters().GCCollections == 0 {
		t.Fatal("the run never collected; raise its scale")
	}
	expotest.Check(t, "testdata/expo_gc.golden", reg.Snapshot())
}
