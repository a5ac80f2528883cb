package tile

import (
	"regions/internal/apps/appkit"
	"regions/internal/mem"
)

// RunMalloc is the malloc/free variant of tile, the structure of the
// original program: every node is malloc'd, per-gap scratch tables are
// freed after each gap, and the document structures are freed at the end.
func RunMalloc(e appkit.MallocEnv, scale int) uint32 {
	sp := e.Space()
	text := Input(scale)

	f := e.PushFrame(5)
	defer e.PopFrame()
	const (
		sVocab = iota
		sChunks
		sCur
		sLeft
		sRight
	)

	// Vocabulary hash table: malloc'd bucket array, cleared by hand.
	vocab := e.Alloc(hashBuckets * 4)
	f.Set(sVocab, vocab)
	for i := 0; i < hashBuckets; i++ {
		sp.Store(vocab+appkit.Ptr(i*4), 0)
	}

	// Intern every word and append its id to the token stream.
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
			node = e.Alloc(wordNodeSize(len(w)))
			sp.Store(node+wNext, sp.Load(b))
			sp.Store(node+wID, nextID)
			sp.Store(node+wCount, 0)
			sp.Store(node+wLen, uint32(len(w)))
			appkit.StoreBytes(sp, node+wChars, w)
			sp.Store(b, node)
			nextID++
		}
		sp.Store(node+wCount, sp.Load(node+wCount)+1)

		cur := f.Get(sCur)
		if cur == 0 || sp.Load(cur+tN) == chunkCap {
			nc := e.Alloc(tokenChunkSize())
			sp.Store(nc+tNext, 0)
			sp.Store(nc+tN, 0)
			if cur == 0 {
				f.Set(sChunks, nc)
			} else {
				sp.Store(cur+tNext, nc)
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

	// Similarity of the windows around sampled gaps.
	nBlocks := nTokens / blockTokens
	var sims []uint32
	var gaps []int
	for g := windowSize; g+windowSize <= nBlocks; g += gapStride {
		left := buildGapTableMalloc(e, f, sLeft, g-windowSize, g)
		right := buildGapTableMalloc(e, f, sRight, g, g+windowSize)
		sims = append(sims, cosine(sp, left, right))
		gaps = append(gaps, g)
		freeGapTableMalloc(e, left)
		freeGapTableMalloc(e, right)
		f.Set(sLeft, 0)
		f.Set(sRight, 0)
		e.Safepoint()
	}
	var bounds []int
	for _, i := range boundaries(sims) {
		bounds = append(bounds, gaps[i])
	}
	sum := checksum(nextID, nTokens, bounds)

	// Tear down the document structures, walking each one.
	for c := f.Get(sChunks); c != 0; {
		next := sp.Load(c + tNext)
		e.Free(c)
		c = next
	}
	for i := 0; i < hashBuckets; i++ {
		for node := sp.Load(vocab + appkit.Ptr(i*4)); node != 0; {
			next := sp.Load(node + wNext)
			e.Free(node)
			node = next
		}
	}
	e.Free(vocab)
	e.Finalize()
	return sum
}

// buildGapTableMalloc counts word occurrences of blocks [from, to) into a
// fresh hash table rooted in frame slot slot.
func buildGapTableMalloc(e appkit.MallocEnv, f appkit.Frame, slot, from, to int) appkit.Ptr {
	sp := e.Space()
	table := e.Alloc(gapBuckets * 4)
	f.Set(slot, table)
	for i := 0; i < gapBuckets; i++ {
		sp.Store(table+appkit.Ptr(i*4), 0)
	}
	forEachToken(sp, f.Get(sChunksSlot), from*blockTokens, to*blockTokens, func(id uint32) {
		b := table + appkit.Ptr(id%gapBuckets*4)
		node := sp.Load(b)
		for node != 0 && sp.Load(node+gID) != id {
			node = sp.Load(node + gNext)
		}
		if node == 0 {
			node = e.Alloc(12)
			sp.Store(node+gNext, sp.Load(b))
			sp.Store(node+gID, id)
			sp.Store(node+gCount, 0)
			sp.Store(b, node)
		}
		sp.Store(node+gCount, sp.Load(node+gCount)+1)
	})
	return table
}

// sChunksSlot duplicates the frame-layout constant for the helpers.
const sChunksSlot = 1

func freeGapTableMalloc(e appkit.MallocEnv, table appkit.Ptr) {
	sp := e.Space()
	for i := 0; i < gapBuckets; i++ {
		for node := sp.Load(table + appkit.Ptr(i*4)); node != 0; {
			next := sp.Load(node + gNext)
			e.Free(node)
			node = next
		}
	}
	e.Free(table)
}

// wordEq compares the stored word at node with w.
func wordEq(sp *mem.Space, node appkit.Ptr, w []byte) bool {
	if int(sp.Load(node+wLen)) != len(w) {
		return false
	}
	for i := 0; i < len(w); i += 4 {
		word := sp.Load(node + wChars + appkit.Ptr(i))
		for k := 0; k < 4 && i+k < len(w); k++ {
			if byte(word>>(8*k)) != w[i+k] {
				return false
			}
		}
	}
	return true
}

// forEachToken walks tokens [from, to) of the chunked stream.
func forEachToken(sp *mem.Space, chunks appkit.Ptr, from, to int, fn func(id uint32)) {
	idx := 0
	for c := chunks; c != 0 && idx < to; c = sp.Load(c + tNext) {
		n := int(sp.Load(c + tN))
		for i := 0; i < n && idx < to; i++ {
			if idx >= from {
				fn(sp.Load(c + tIDs + appkit.Ptr(i*4)))
			}
			idx++
		}
	}
}

// cosine computes the fixed-point cosine similarity (0..1000) between two
// gap tables.
func cosine(sp *mem.Space, left, right appkit.Ptr) uint32 {
	var dot, normL, normR uint64
	for i := 0; i < gapBuckets; i++ {
		for node := sp.Load(left + appkit.Ptr(i*4)); node != 0; node = sp.Load(node + gNext) {
			lc := uint64(sp.Load(node + gCount))
			normL += lc * lc
			id := sp.Load(node + gID)
			r := sp.Load(right + appkit.Ptr(id%gapBuckets*4))
			for r != 0 && sp.Load(r+gID) != id {
				r = sp.Load(r + gNext)
			}
			if r != 0 {
				dot += lc * uint64(sp.Load(r+gCount))
			}
		}
		for node := sp.Load(right + appkit.Ptr(i*4)); node != 0; node = sp.Load(node + gNext) {
			rc := uint64(sp.Load(node + gCount))
			normR += rc * rc
		}
	}
	den := uint64(isqrt(normL)) * uint64(isqrt(normR))
	if den == 0 {
		return 0
	}
	return uint32(dot * 1000 / den)
}
