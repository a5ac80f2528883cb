package appkit

import (
	"testing"

	"regions/internal/core"
)

func TestBZEnvRunsLikeOtherMallocs(t *testing.T) {
	e := NewMallocEnv("BZ", Config{})
	if e.Name() != "BZ" {
		t.Fatalf("name %q", e.Name())
	}
	f := e.PushFrame(1)
	defer e.PopFrame()
	var ptrs []Ptr
	for i := 0; i < 500; i++ {
		p := e.Alloc(24)
		e.Space().Store(p, uint32(i))
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if e.Space().Load(p) != uint32(i) {
			t.Fatalf("object %d clobbered", i)
		}
		e.Free(p)
	}
	f.Set(0, 0)
	c := e.Counters()
	if c.Allocs != 500 || c.FreeCalls != 500 || c.LiveBytes != 0 {
		t.Fatalf("stats: allocs=%d frees=%d live=%d", c.Allocs, c.FreeCalls, c.LiveBytes)
	}
}

func TestCustomRegionEnvOptions(t *testing.T) {
	e := NewCustomRegionEnv("eager-test", core.Options{Safe: true, EagerLocals: true}, Config{})
	if e.Name() != "eager-test" || !e.Safe() {
		t.Fatalf("name=%q safe=%v", e.Name(), e.Safe())
	}
	cln := e.RegisterCleanup("cell", func(e RegionEnv, obj Ptr) int {
		e.Destroy(e.Space().Load(obj))
		return 4
	})
	f := e.PushFrame(1)
	r := e.NewRegion()
	p := e.Ralloc(r, 4, cln)
	f.Set(0, p)
	if e.DeleteRegion(r) {
		t.Fatal("delete succeeded with eager-counted live slot")
	}
	f.Set(0, 0)
	if !e.DeleteRegion(r) {
		t.Fatal("delete failed")
	}
	e.PopFrame()
	e.Finalize()
	unsafeEnv := NewCustomRegionEnv("unsafe-test", core.Options{}, Config{})
	if unsafeEnv.Safe() {
		t.Fatal("zero options should be unsafe")
	}
}

func TestFreeUnknownPointerPanics(t *testing.T) {
	e := NewMallocEnv("Lea", Config{})
	p := e.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown pointer")
		}
	}()
	e.Free(p + 4)
}

func TestEmuRegionFinalizeCountsLiveRegions(t *testing.T) {
	e := NewRegionEnv("emu:BSD", Config{})
	r := e.NewRegion()
	for i := 0; i < 100; i++ {
		e.RstrAlloc(r, 100)
	}
	// Not deleted: Finalize must still fold its size into MaxRegionBytes.
	e.Finalize()
	if got := e.Counters().MaxRegionBytes; got != 100*100 {
		t.Fatalf("MaxRegionBytes=%d, want 10000", got)
	}
}

func TestCoreEnvRarrayAndDynamicStore(t *testing.T) {
	e := NewRegionEnv("safe", Config{})
	clnPtr := e.RegisterCleanup("ptr", func(e RegionEnv, obj Ptr) int {
		e.Destroy(e.Space().Load(obj))
		return 4
	})
	r := e.NewRegion()
	s := e.NewRegion()
	arr := e.RarrayAlloc(r, 4, 4, clnPtr)
	p := e.RstrAlloc(s, 8)
	e.StorePtr(arr, p)
	if e.DeleteRegion(s) {
		t.Fatal("s should be pinned by the array element")
	}
	e.StorePtr(arr, 0)
	if !e.DeleteRegion(s) {
		t.Fatal("delete failed after clearing")
	}
	if !e.DeleteRegion(r) {
		t.Fatal("delete r failed")
	}
	e.Finalize()
}

// TestCoreEnvGlobalsAreRuntimeGlobals: globals a real-runtime env hands
// out are the runtime's own global storage, so Verify recounts a region
// pointer stored there and Referrers names the global holding it.
func TestCoreEnvGlobalsAreRuntimeGlobals(t *testing.T) {
	e := NewRegionEnv("safe", Config{})
	r := e.NewRegion()
	p := e.Ralloc(r, 8, e.SizeCleanup(8))
	g := e.AllocGlobals(1)
	e.StoreGlobalPtr(g, p)
	rt := e.(*CoreEnv).Runtime()
	if err := rt.Verify(); err != nil {
		t.Fatalf("Verify with a global reference: %v", err)
	}
	refs := rt.Referrers(r.(*core.Region))
	if len(refs) != 1 || refs[0].Kind != core.RefGlobal || refs[0].Addr != g || refs[0].Value != p {
		t.Fatalf("Referrers = %v, want the global at %#x holding %#x", refs, g, p)
	}
}

func TestEnvNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range MallocKinds {
		e := NewMallocEnv(k, Config{})
		if seen[e.Name()] {
			t.Fatalf("duplicate env name %q", e.Name())
		}
		seen[e.Name()] = true
	}
	for _, k := range RegionKinds {
		e := NewRegionEnv(k, Config{})
		if seen[e.Name()] {
			t.Fatalf("duplicate env name %q", e.Name())
		}
		seen[e.Name()] = true
	}
}
