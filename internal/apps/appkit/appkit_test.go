package appkit

import (
	"bytes"
	"testing"

	"regions/internal/mem"
)

func TestAllMallocEnvsBasic(t *testing.T) {
	for _, kind := range MallocKinds {
		t.Run(kind, func(t *testing.T) {
			e := NewMallocEnv(kind, Config{})
			if e.Name() != kind {
				t.Fatalf("name %q", e.Name())
			}
			f := e.PushFrame(1)
			p := e.Alloc(100)
			f.Set(0, p)
			e.Space().Store(p, 42)
			if f.Get(0) != p {
				t.Fatal("frame slot lost")
			}
			if e.Space().Load(p) != 42 {
				t.Fatal("store lost")
			}
			c := e.Counters()
			if c.Allocs != 1 || c.BytesRequested != 100 {
				t.Fatalf("allocs=%d bytes=%d", c.Allocs, c.BytesRequested)
			}
			e.Free(p)
			if c.FreeCalls != 1 || c.LiveBytes != 0 {
				t.Fatalf("frees=%d live=%d", c.FreeCalls, c.LiveBytes)
			}
			e.PopFrame()
			e.Finalize()
		})
	}
}

func TestAllRegionEnvsBasic(t *testing.T) {
	for _, kind := range RegionKinds {
		t.Run(kind, func(t *testing.T) {
			e := NewRegionEnv(kind, Config{})
			cln := e.RegisterCleanup("cell", func(e RegionEnv, obj Ptr) int {
				e.Destroy(e.Space().Load(obj + 4))
				return 8
			})
			f := e.PushFrame(1)
			r := e.NewRegion()
			p := e.Ralloc(r, 8, cln)
			f.Set(0, p)
			if e.Space().Load(p) != 0 {
				t.Fatal("ralloc not cleared")
			}
			e.Space().Store(p, 9)
			q := e.Ralloc(r, 8, cln)
			e.StorePtr(q+4, p) // sameregion pointer
			s := e.RstrAlloc(r, 20)
			StoreBytes(e.Space(), s, []byte("hello, world."))
			arr := e.RarrayAlloc(r, 3, 8, cln)
			e.StorePtr(arr, q)

			g := e.AllocGlobals(1)
			e.StoreGlobalPtr(g, p)
			if e.Safe() {
				if e.DeleteRegion(r) {
					t.Fatal("safe env deleted region with global ref")
				}
			}
			e.StoreGlobalPtr(g, 0)
			f.Set(0, 0)
			if !e.DeleteRegion(r) {
				t.Fatal("delete failed")
			}
			e.PopFrame()
			e.Finalize()
			c := e.Counters()
			if c.RegionsCreated != 1 || c.RegionsDeleted != 1 {
				t.Fatalf("regions created=%d deleted=%d", c.RegionsCreated, c.RegionsDeleted)
			}
			if c.Allocs != 4 {
				t.Fatalf("allocs=%d, want 4", c.Allocs)
			}
			if c.LiveBytes != 0 {
				t.Fatalf("live=%d after delete", c.LiveBytes)
			}
		})
	}
}

func TestEmulationOverheadReported(t *testing.T) {
	e := NewRegionEnv("emu:Lea", Config{})
	r := e.NewRegion()
	for i := 0; i < 10; i++ {
		e.RstrAlloc(r, 12)
	}
	if got := EmulationOverhead(e); got != 40 {
		t.Fatalf("overhead=%d, want 40", got)
	}
	safe := NewRegionEnv("safe", Config{})
	if got := EmulationOverhead(safe); got != 0 {
		t.Fatalf("overhead=%d for real regions, want 0", got)
	}
}

func TestEmuOverGCDropsFreesButDeletes(t *testing.T) {
	e := NewRegionEnv("emu:GC", Config{})
	r := e.NewRegion()
	var last Ptr
	for i := 0; i < 50; i++ {
		last = e.RstrAlloc(r, 40)
		e.Space().Store(last, uint32(i))
	}
	if !e.DeleteRegion(r) {
		t.Fatal("delete failed")
	}
	// Objects become garbage, not recycled synchronously; memory intact
	// until a collection happens.
	if e.Space().Load(last) != 49 {
		t.Fatal("object clobbered by emu delete under GC")
	}
	if e.Counters().LiveBytes != 0 {
		t.Fatalf("live=%d", e.Counters().LiveBytes)
	}
}

func TestCacheConfigAttaches(t *testing.T) {
	e := NewMallocEnv("Lea", Config{Cache: true})
	p := e.Alloc(4096)
	for i := 0; i < 4096; i += 4 {
		e.Space().Load(p + Ptr(i))
	}
	if e.Counters().ReadStalls == 0 {
		t.Fatal("no read stalls with cache attached")
	}
	e2 := NewMallocEnv("Lea", Config{})
	p2 := e2.Alloc(4096)
	e2.Space().Load(p2)
	if e2.Counters().ReadStalls != 0 {
		t.Fatal("stalls without cache model")
	}
}

func TestStoreLoadBytes(t *testing.T) {
	e := NewMallocEnv("BSD", Config{})
	sp := e.Space()
	cases := [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		[]byte("abcde"),
		[]byte("the quick brown fox jumps over the lazy dog"),
	}
	for _, want := range cases {
		n := len(want)
		if n == 0 {
			continue
		}
		p := e.Alloc(BytesWords(n) * mem.WordSize)
		StoreBytes(sp, p, want)
		if got := LoadBytes(sp, p, n); !bytes.Equal(got, want) {
			t.Fatalf("round trip %q -> %q", want, got)
		}
	}
}

// TestEqualBytesLoadsWhatLoadBytesLoads: comparing in place gives the
// answer of comparing a copy and charges exactly the copy's loads, whether
// or not the bytes match.
func TestEqualBytesLoadsWhatLoadBytesLoads(t *testing.T) {
	e := NewMallocEnv("BSD", Config{})
	sp := e.Space()
	for _, stored := range []string{"", "a", "main", "mains", "f12", "the quick brown fox"} {
		p := e.Alloc((BytesWords(len(stored)) + 1) * mem.WordSize)
		StoreBytes(sp, p, []byte(stored))
		for _, s := range []string{"", "a", "main", "maim", "mains", "xhe quick brown fox", "the quick brown fox"} {
			for _, n := range []int{len(stored), len(s)} {
				c0 := e.Counters().TotalCycles()
				want := string(LoadBytes(sp, p, n)) == s
				c1 := e.Counters().TotalCycles()
				got := EqualBytes(sp, p, n, s)
				c2 := e.Counters().TotalCycles()
				if got != want || c2-c1 != c1-c0 {
					t.Errorf("EqualBytes(%q, n=%d, %q) = %v in %d cycles; LoadBytes compare = %v in %d",
						stored, n, s, got, c2-c1, want, c1-c0)
				}
			}
		}
	}
}

func TestBytesWords(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 4: 1, 5: 2, 8: 2, 9: 3}
	for n, want := range cases {
		if got := BytesWords(n); got != want {
			t.Errorf("BytesWords(%d)=%d, want %d", n, got, want)
		}
	}
}

func TestUnknownEnvPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMallocEnv("bogus", Config{}) },
		func() { NewRegionEnv("bogus", Config{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for unknown env")
				}
			}()
			f()
		}()
	}
}

func TestSafeVsUnsafeSameResults(t *testing.T) {
	// The same workload on safe and unsafe regions must produce identical
	// allocation statistics; only safety cycles differ.
	run := func(kind string) (uint64, uint64, uint64) {
		e := NewRegionEnv(kind, Config{})
		cln := e.RegisterCleanup("cell", func(e RegionEnv, obj Ptr) int {
			e.Destroy(e.Space().Load(obj))
			return 8
		})
		for round := 0; round < 5; round++ {
			r := e.NewRegion()
			var prev Ptr
			for i := 0; i < 200; i++ {
				p := e.Ralloc(r, 8, cln)
				e.StorePtr(p, prev)
				prev = p
			}
			if !e.DeleteRegion(r) {
				t.Fatal("delete failed")
			}
		}
		e.Finalize()
		c := e.Counters()
		return c.Allocs, c.BytesRequested, c.SafetyCycles()
	}
	a1, b1, s1 := run("safe")
	a2, b2, s2 := run("unsafe")
	if a1 != a2 || b1 != b2 {
		t.Fatalf("allocation stats differ: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
	if s1 == 0 || s2 != 0 {
		t.Fatalf("safety cycles: safe=%d unsafe=%d", s1, s2)
	}
}
