package tile

import (
	"regions/internal/apps/appkit"
)

// RunRegion is the region variant of tile: the vocabulary and token stream
// live in a document region for the whole run, and each gap's two scratch
// tables live in a temporary region deleted right after the gap is scored —
// no walking of data structures to deallocate them. As in the paper's port,
// the only subtlety is clearing the local table pointers so the temporary
// region can be deleted.
func RunRegion(e appkit.RegionEnv, scale int) uint32 {
	sp := e.Space()
	text := Input(scale)

	clnWord := e.RegisterCleanup("tile.word", func(e appkit.RegionEnv, obj appkit.Ptr) int {
		e.Destroy(e.Space().Load(obj + wNext))
		return wordNodeSize(int(e.Space().Load(obj + wLen)))
	})
	clnChunk := e.RegisterCleanup("tile.chunk", func(e appkit.RegionEnv, obj appkit.Ptr) int {
		e.Destroy(e.Space().Load(obj + tNext))
		return tokenChunkSize()
	})
	clnGap := e.RegisterCleanup("tile.gap", func(e appkit.RegionEnv, obj appkit.Ptr) int {
		e.Destroy(e.Space().Load(obj + gNext))
		return 12
	})
	clnPtr := e.RegisterCleanup("tile.ptr", func(e appkit.RegionEnv, obj appkit.Ptr) int {
		e.Destroy(e.Space().Load(obj))
		return 4
	})

	f := e.PushFrame(5)
	defer e.PopFrame()
	const (
		sVocab = iota
		sChunks
		sCur
		sLeft
		sRight
	)

	doc := appkit.NewBound(e)

	// Vocabulary hash table: ralloc'd (and therefore cleared) bucket array.
	vocab := doc.AllocArray(hashBuckets, 4, clnPtr)
	f.Set(sVocab, vocab)

	nextID := uint32(0)
	nTokens := 0
	for w, rest := nextWord(text); w != nil; w, rest = nextWord(rest) {
		b := vocab + appkit.Ptr(hashWord(w)%hashBuckets*4)
		node := sp.Load(b)
		for node != 0 {
			if wordEq(sp, node, w) {
				break
			}
			node = sp.Load(node + wNext)
		}
		if node == 0 {
			node = doc.Alloc(wordNodeSize(len(w)), clnWord)
			e.StorePtr(node+wNext, sp.Load(b))
			sp.Store(node+wID, nextID)
			sp.Store(node+wLen, uint32(len(w)))
			appkit.StoreBytes(sp, node+wChars, w)
			e.StorePtr(b, node)
			nextID++
		}
		sp.Store(node+wCount, sp.Load(node+wCount)+1)

		cur := f.Get(sCur)
		if cur == 0 || sp.Load(cur+tN) == chunkCap {
			nc := doc.Alloc(tokenChunkSize(), clnChunk)
			if cur == 0 {
				f.Set(sChunks, nc)
			} else {
				e.StorePtr(cur+tNext, nc)
			}
			f.Set(sCur, nc)
			cur = nc
		}
		n := sp.Load(cur + tN)
		sp.Store(cur+tIDs+appkit.Ptr(n*4), sp.Load(node+wID))
		sp.Store(cur+tN, n+1)
		nTokens++
		e.Safepoint()
	}

	nBlocks := nTokens / blockTokens
	var sims []uint32
	var gaps []int
	for g := windowSize; g+windowSize <= nBlocks; g += gapStride {
		tmp := appkit.NewBound(e)
		left := buildGapTableRegion(e, tmp, clnGap, clnPtr, f, sLeft, g-windowSize, g)
		right := buildGapTableRegion(e, tmp, clnGap, clnPtr, f, sRight, g, g+windowSize)
		sims = append(sims, cosine(sp, left, right))
		gaps = append(gaps, g)
		// Clear the stale locals, then drop the whole scratch region.
		f.Set(sLeft, 0)
		f.Set(sRight, 0)
		if !tmp.Delete() {
			panic("tile: scratch region not deletable")
		}
		e.Safepoint()
	}
	var bounds []int
	for _, i := range boundaries(sims) {
		bounds = append(bounds, gaps[i])
	}
	sum := checksum(nextID, nTokens, bounds)

	// The whole document dies with one deletion.
	f.Set(sVocab, 0)
	f.Set(sChunks, 0)
	f.Set(sCur, 0)
	if !doc.Delete() {
		panic("tile: document region not deletable")
	}
	e.Finalize()
	return sum
}

// buildGapTableRegion counts word occurrences of blocks [from, to) into a
// fresh table allocated in the scratch region.
func buildGapTableRegion(e appkit.RegionEnv, tmp appkit.BoundRegion, clnGap, clnPtr appkit.CleanupID,
	f appkit.Frame, slot, from, to int) appkit.Ptr {
	sp := e.Space()
	table := tmp.AllocArray(gapBuckets, 4, clnPtr)
	f.Set(slot, table)
	forEachToken(sp, f.Get(sChunksSlot), from*blockTokens, to*blockTokens, func(id uint32) {
		b := table + appkit.Ptr(id%gapBuckets*4)
		node := sp.Load(b)
		for node != 0 && sp.Load(node+gID) != id {
			node = sp.Load(node + gNext)
		}
		if node == 0 {
			node = tmp.Alloc(12, clnGap)
			e.StorePtr(node+gNext, sp.Load(b))
			sp.Store(node+gID, id)
			e.StorePtr(b, node)
		}
		sp.Store(node+gCount, sp.Load(node+gCount)+1)
	})
	return table
}
