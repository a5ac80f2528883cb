package moss

import "regions/internal/apps/appkit"

// RunRegion is the optimized region variant of moss from the paper's
// Section 5.5: two regions, one for the small frequently-accessed objects
// (index buckets and postings) and one for the large infrequently-accessed
// ones (text buffers, snippets, the pair matrix). Packing the postings
// densely is what buys the paper's 24% improvement and roughly half the
// stalls.
func RunRegion(e appkit.RegionEnv, scale int) uint32 {
	return runRegion(e, scale, false)
}

// RunSlowRegion is the paper's original moss region version: a single
// region, so small postings and large snippets interleave on its pages.
func RunSlowRegion(e appkit.RegionEnv, scale int) uint32 {
	return runRegion(e, scale, true)
}

func runRegion(e appkit.RegionEnv, scale int, single bool) uint32 {
	sp := e.Space()
	docs := Inputs(scale)
	var sc scratch

	clnPost := e.RegisterCleanup("moss.posting", func(e appkit.RegionEnv, obj appkit.Ptr) int {
		e.Destroy(e.Space().Load(obj + pNext))
		e.Destroy(e.Space().Load(obj + pSnippet))
		return postingSize
	})
	clnPtr := e.RegisterCleanup("moss.ptr", func(e appkit.RegionEnv, obj appkit.Ptr) int {
		e.Destroy(e.Space().Load(obj))
		return 4
	})
	clnSnip := e.SizeCleanup(snippetObjSize())

	f := e.PushFrame(4)
	defer e.PopFrame()
	const (
		sBuckets = iota
		sMatrix
		sText
		sPost
	)

	small := appkit.NewBound(e)
	large := small
	if !single {
		large = appkit.NewBound(e)
	}

	// Index buckets with the postings; matrix and texts with the large data.
	buckets := small.AllocArray(idxBuckets, 4, clnPtr)
	f.Set(sBuckets, buckets)
	matrix := large.AllocStr(scale * scale * 4)
	f.Set(sMatrix, matrix)
	for i := 0; i < scale*scale; i++ {
		sp.Store(matrix+appkit.Ptr(i*4), 0)
	}

	postings := 0
	for d, doc := range docs {
		text := large.AllocStr(textObjSize(len(doc)))
		f.Set(sText, text)
		sp.Store(text+txtLen, uint32(len(doc)))
		appkit.StoreBytes(sp, text+txtBytes, doc)

		for _, fp := range sc.fingerprintDoc(sp, text) {
			post := small.Alloc(postingSize, clnPost)
			b := buckets + appkit.Ptr(fp.hash%idxBuckets*4)
			e.StorePtr(post+pNext, sp.Load(b))
			sp.Store(post+pHash, fp.hash)
			sp.Store(post+pDocPos, pairKey(d, fp.pos))
			e.StorePtr(b, post)
			f.Set(sPost, post)

			// In the slow version the snippet is rallocated right next to
			// the posting, interleaving large write-once data with the hot
			// small nodes; the optimized version segregates it.
			var snip appkit.Ptr
			if single {
				snip = large.Alloc(snippetObjSize(), clnSnip)
			} else {
				snip = large.AllocStr(snippetObjSize())
			}
			writeSnippet(sp, snip, doc, fp.pos)
			e.StorePtr(post+pSnippet, snip)
			f.Set(sPost, 0)
			postings++
			e.Safepoint()
		}
		f.Set(sText, 0)
		// The text buffer is fully consumed — fingerprints are in the index
		// and snippets were copied out — so hand it back for the next doc's
		// text to reuse (a no-op in environments without an explicit string
		// free; the texts then die with the large region as before).
		large.FreeStr(text, textObjSize(len(doc)))
	}

	scorePairs(sp, buckets, matrix, scale)
	matches := collectMatches(sp, matrix, scale)
	cov := large.AllocStr(scale * 4)
	f.Set(sText, cov)
	coveragePass(sp, buckets, cov, scale)
	for d := 0; d < scale; d++ {
		matches = append(matches, sp.Load(cov+appkit.Ptr(d*4)))
	}
	f.Set(sText, 0)
	sum := checksum(postings, matches)

	f.Set(sBuckets, 0)
	f.Set(sMatrix, 0)
	// The postings hold counted pointers into the large region, so the
	// small region must go first; its cleanups release those references.
	if !small.Delete() {
		panic("moss: small region not deletable")
	}
	if !single {
		if !large.Delete() {
			panic("moss: large region not deletable")
		}
	}
	e.Finalize()
	return sum
}
