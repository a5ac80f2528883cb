package moss

import (
	"testing"

	"regions/internal/apps/appkit"
)

const testScale = 9

func TestAllVariantsAgree(t *testing.T) {
	var want uint32
	first := true
	check := func(name string, got uint32) {
		if first {
			want, first = got, false
			return
		}
		if got != want {
			t.Fatalf("%s checksum %#x, want %#x", name, got, want)
		}
	}
	for _, kind := range appkit.MallocKinds {
		check("malloc/"+kind, RunMalloc(appkit.NewMallocEnv(kind, appkit.Config{}), testScale))
	}
	for _, kind := range appkit.RegionKinds {
		check("region/"+kind, RunRegion(appkit.NewRegionEnv(kind, appkit.Config{}), testScale))
		check("slow/"+kind, RunSlowRegion(appkit.NewRegionEnv(kind, appkit.Config{}), testScale))
	}
}

func TestDetectsPlagiarizedPairs(t *testing.T) {
	e := appkit.NewMallocEnv("Lea", appkit.Config{})
	sp := e.Space()
	docs := Inputs(testScale)

	// Rerun the scoring pipeline manually to inspect matches.
	f := e.PushFrame(4)
	defer e.PopFrame()
	buckets := e.Alloc(idxBuckets * 4)
	f.Set(0, buckets)
	for i := 0; i < idxBuckets; i++ {
		sp.Store(buckets+appkit.Ptr(i*4), 0)
	}
	matrix := e.Alloc(testScale * testScale * 4)
	f.Set(1, matrix)
	for i := 0; i < testScale*testScale; i++ {
		sp.Store(matrix+appkit.Ptr(i*4), 0)
	}
	var sc scratch
	for d, doc := range docs {
		text := e.Alloc(textObjSize(len(doc)))
		f.Set(2, text)
		sp.Store(text+txtLen, uint32(len(doc)))
		appkit.StoreBytes(sp, text+txtBytes, doc)
		for _, fp := range sc.fingerprintDoc(sp, text) {
			post := e.Alloc(postingSize)
			b := buckets + appkit.Ptr(fp.hash%idxBuckets*4)
			sp.Store(post+pNext, sp.Load(b))
			sp.Store(post+pHash, fp.hash)
			sp.Store(post+pDocPos, pairKey(d, fp.pos))
			sp.Store(post+pSnippet, 0)
			sp.Store(b, post)
		}
		f.Set(2, 0)
	}
	scorePairs(sp, buckets, matrix, testScale)
	matches := collectMatches(sp, matrix, testScale)

	// Document 3 copies from document 0, 6 from 3 (scale/3 = 3).
	found := map[uint32]bool{}
	for i := 0; i < len(matches); i += 2 {
		found[matches[i]] = true
	}
	if !found[pairKey(0, 3)] {
		t.Errorf("plagiarized pair (0,3) not detected; matches=%v", matches)
	}
	if !found[pairKey(3, 6)] {
		t.Errorf("plagiarized pair (3,6) not detected; matches=%v", matches)
	}
}

func TestWinnowProperties(t *testing.T) {
	hashes := []uint32{5, 9, 1, 7, 8, 2, 2, 6, 9, 9, 3, 4, 8, 1, 5, 6}
	fps := winnow(hashes, nil)
	if len(fps) == 0 {
		t.Fatal("no fingerprints")
	}
	// Every window of `window` consecutive hashes must contain a selected
	// fingerprint position (the winnowing guarantee).
	for w := 0; w+window <= len(hashes); w++ {
		ok := false
		for _, fp := range fps {
			if fp.pos >= w && fp.pos < w+window {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("window starting at %d has no fingerprint", w)
		}
	}
	// No duplicate positions.
	seen := map[int]bool{}
	for _, fp := range fps {
		if seen[fp.pos] {
			t.Fatalf("duplicate fingerprint position %d", fp.pos)
		}
		seen[fp.pos] = true
	}
}

func TestNormalizeByte(t *testing.T) {
	cases := map[byte]byte{'a': 'a', 'Z': 'z', '3': '3', ' ': 0, '_': 0, '\n': 0, '/': 0}
	for in, want := range cases {
		if got := normalizeByte(in); got != want {
			t.Errorf("normalizeByte(%q)=%q, want %q", in, got, want)
		}
	}
}

func TestSlowVersionWorseLocality(t *testing.T) {
	// Figure 10's moss story: the optimized two-region version has far
	// fewer stalls than the single-region version.
	slow := appkit.NewRegionEnv("unsafe", appkit.Config{Cache: true})
	RunSlowRegion(slow, testScale)
	fast := appkit.NewRegionEnv("unsafe", appkit.Config{Cache: true})
	RunRegion(fast, testScale)
	ss := slow.Counters().ReadStalls + slow.Counters().WriteStalls
	fs := fast.Counters().ReadStalls + fast.Counters().WriteStalls
	if fs >= ss {
		t.Fatalf("optimized version should stall less: fast=%d slow=%d", fs, ss)
	}
	t.Logf("stalls: slow=%d fast=%d (ratio %.2f)", ss, fs, float64(ss)/float64(fs))
}

func TestRegionVariantLeaksNothing(t *testing.T) {
	e := appkit.NewRegionEnv("safe", appkit.Config{})
	RunRegion(e, testScale)
	c := e.Counters()
	if c.LiveRegions != 0 || c.LiveBytes != 0 {
		t.Fatalf("live regions=%d bytes=%d at end", c.LiveRegions, c.LiveBytes)
	}
}

func TestInputsDeterministicWithSharedBlocks(t *testing.T) {
	a, b := Inputs(9), Inputs(9)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatal("inputs not deterministic")
		}
	}
	if len(a) != 9 {
		t.Fatalf("want 9 docs, got %d", len(a))
	}
	// Doc 3 must textually contain a block of doc 0.
	src := a[0]
	block := src[len(src)/4 : len(src)/4+len(src)/2]
	if !contains(a[3], block) {
		t.Fatal("plagiarized block missing from doc 3")
	}
}

func contains(hay, needle []byte) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if string(hay[i:i+len(needle)]) == string(needle) {
			return true
		}
	}
	return false
}
