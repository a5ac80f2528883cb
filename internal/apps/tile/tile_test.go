package tile

import (
	"math"
	"testing"
	"testing/quick"

	"regions/internal/apps/appkit"
	"regions/internal/race"
)

func TestAllVariantsAgree(t *testing.T) {
	const scale = 2
	var want uint32
	first := true
	check := func(name string, got uint32) {
		if first {
			want = got
			first = false
			return
		}
		if got != want {
			t.Fatalf("%s checksum %#x, want %#x", name, got, want)
		}
	}
	for _, kind := range appkit.MallocKinds {
		e := appkit.NewMallocEnv(kind, appkit.Config{})
		check("malloc/"+kind, RunMalloc(e, scale))
	}
	for _, kind := range appkit.RegionKinds {
		e := appkit.NewRegionEnv(kind, appkit.Config{})
		check("region/"+kind, RunRegion(e, scale))
	}
}

func TestMallocVariantFreesEverything(t *testing.T) {
	e := appkit.NewMallocEnv("Lea", appkit.Config{})
	RunMalloc(e, 1)
	c := e.Counters()
	if c.LiveBytes != 0 {
		t.Fatalf("%d bytes leaked", c.LiveBytes)
	}
	if c.FreeCalls != c.Allocs {
		t.Fatalf("allocs=%d frees=%d", c.Allocs, c.FreeCalls)
	}
}

func TestRegionVariantDeletesAllRegions(t *testing.T) {
	e := appkit.NewRegionEnv("safe", appkit.Config{})
	RunRegion(e, 1)
	c := e.Counters()
	if c.LiveRegions != 0 {
		t.Fatalf("%d regions leaked", c.LiveRegions)
	}
	if c.LiveBytes != 0 {
		t.Fatalf("%d bytes live at end", c.LiveBytes)
	}
	if c.RegionsCreated < 10 {
		t.Fatalf("only %d regions created; scratch regions missing?", c.RegionsCreated)
	}
}

func TestAllocationVolumeComparable(t *testing.T) {
	// Table 2 vs Table 3: the two variants should request nearly the same
	// memory (the paper's discrepancies are small).
	em := appkit.NewMallocEnv("Lea", appkit.Config{})
	RunMalloc(em, 2)
	er := appkit.NewRegionEnv("unsafe", appkit.Config{})
	RunRegion(er, 2)
	mb := em.Counters().BytesRequested
	rb := er.Counters().BytesRequested
	ratio := float64(rb) / float64(mb)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("requested bytes differ: malloc %d vs region %d", mb, rb)
	}
}

func TestInputDeterministicAndScaled(t *testing.T) {
	a, b := Input(2), Input(2)
	if string(a) != string(b) {
		t.Fatal("input not deterministic")
	}
	one := Input(1)
	if len(a) != 2*len(one) {
		t.Fatalf("scale 2 length %d, want %d", len(a), 2*len(one))
	}
	if len(one) < 8000 {
		t.Fatalf("document too small: %d bytes", len(one))
	}
}

func TestTokenize(t *testing.T) {
	var got []string
	for w, rest := nextWord([]byte("Hello, world. a b-c")); w != nil; w, rest = nextWord(rest) {
		got = append(got, string(w))
	}
	want := []string{"Hello", "world", "a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestHostAllocsTokenize: the word scanner slices the host text, so
// tokenizing a whole text allocates nothing however many words it holds.
func TestHostAllocsTokenize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	text := Input(2)
	n := 0
	if got := testing.AllocsPerRun(10, func() {
		for w, rest := nextWord(text); w != nil; w, rest = nextWord(rest) {
			n++
		}
	}); got != 0 {
		t.Errorf("tokenizing a text allocates %.2f Go objects, want 0", got)
	}
	if n == 0 {
		t.Fatal("the scanner found no words")
	}
}

func TestBoundariesFindsDeepMinima(t *testing.T) {
	sims := []uint32{900, 880, 900, 910, 200, 905, 890, 900}
	got := boundaries(sims)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("boundaries=%v, want [4]", got)
	}
	flat := []uint32{500, 510, 505, 500, 508}
	if got := boundaries(flat); len(got) != 0 {
		t.Fatalf("flat series produced boundaries %v", got)
	}
}

func TestIsqrtProperty(t *testing.T) {
	err := quick.Check(func(v uint64) bool {
		v %= uint64(math.MaxUint32) * uint64(math.MaxUint32)
		r := uint64(isqrt(v))
		return r*r <= v && (r+1)*(r+1) > v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFindsTopicBoundaries(t *testing.T) {
	// The synthetic document has ten topic segments; the tiler should find
	// at least a handful of boundaries in two copies of it.
	e := appkit.NewMallocEnv("Lea", appkit.Config{})
	sum1 := RunMalloc(e, 2)
	e2 := appkit.NewMallocEnv("Lea", appkit.Config{})
	sum2 := RunMalloc(e2, 3)
	if sum1 == sum2 {
		t.Fatal("different scales produced identical checksums")
	}
}
