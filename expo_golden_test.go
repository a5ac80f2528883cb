package regions_test

import (
	"testing"

	"regions"
	"regions/internal/expotest"
)

// meteredWorkload exercises every core series on one System: allocations
// of all three kinds, region, sameregion and global barriers, a frame scan
// at every deletion, and 201 region lifetimes.
func meteredWorkload(t *testing.T, sys *regions.System) {
	t.Helper()
	cln := sys.SizeCleanup(16)
	g := sys.AllocGlobals(4)
	outer := sys.NewRegion()
	f := sys.PushFrame(2)
	for i := 0; i < 200; i++ {
		r := sys.NewRegion()
		f.Set(0, sys.Ralloc(r, 16, cln))
		p := sys.Ralloc(r, 48, cln)
		q := sys.Ralloc(outer, 16, cln)
		sys.StorePtr(p, q)
		sys.StorePtr(p+4, f.Get(0)) // sameregion
		sys.StoreGlobalPtr(g, p)
		sys.RstrAlloc(r, 33)
		sys.RarrayAlloc(r, 4, 12, cln)
		sys.StoreGlobalPtr(g, 0)
		sys.StorePtr(p, 0)
		sys.StorePtr(p+4, 0)
		f.Set(0, 0)
		if !sys.DeleteRegion(r) {
			t.Fatal("inner region did not delete")
		}
	}
	sys.PopFrame()
	if !sys.DeleteRegion(outer) {
		t.Fatal("outer region did not delete")
	}
}

// TestSystemExpositionGolden pins a metered System's whole exposition —
// every core and mem series, allocation sites included — byte for byte.
func TestSystemExpositionGolden(t *testing.T) {
	sys := regions.New()
	reg := regions.NewMetricsRegistry()
	sys.SetMetrics(reg)
	meteredWorkload(t, sys)
	expotest.Check(t, "testdata/expo_system.golden", reg.Snapshot())
}
