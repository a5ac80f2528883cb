package moss

import (
	"regions/internal/apps/appkit"
	"regions/internal/mem"
)

// RunMalloc is the malloc/free variant of moss, the structure of the
// original program: text buffers are freed once fingerprinted, and the
// fingerprint index — postings and their snippets — is walked and freed at
// the end.
func RunMalloc(e appkit.MallocEnv, scale int) uint32 {
	sp := e.Space()
	docs := Inputs(scale)
	var sc scratch

	f := e.PushFrame(4)
	defer e.PopFrame()
	const (
		sBuckets = iota
		sMatrix
		sText
		sPost
	)

	buckets := e.Alloc(idxBuckets * 4)
	f.Set(sBuckets, buckets)
	for i := 0; i < idxBuckets; i++ {
		sp.Store(buckets+appkit.Ptr(i*4), 0)
	}
	matrix := e.Alloc(scale * scale * 4)
	f.Set(sMatrix, matrix)
	for i := 0; i < scale*scale; i++ {
		sp.Store(matrix+appkit.Ptr(i*4), 0)
	}

	postings := 0
	for d, doc := range docs {
		// Load the submission into a large heap buffer.
		text := e.Alloc(textObjSize(len(doc)))
		f.Set(sText, text)
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
			f.Set(sPost, post)

			snip := e.Alloc(snippetObjSize())
			writeSnippet(sp, snip, doc, fp.pos)
			sp.Store(post+pSnippet, snip)
			f.Set(sPost, 0)
			postings++
			e.Safepoint()
		}
		f.Set(sText, 0)
		e.Free(text) // the original frees each submission after indexing
	}

	scorePairs(sp, buckets, matrix, scale)
	matches := collectMatches(sp, matrix, scale)
	cov := e.Alloc(scale * 4)
	f.Set(sText, cov)
	coveragePass(sp, buckets, cov, scale)
	for d := 0; d < scale; d++ {
		matches = append(matches, sp.Load(cov+appkit.Ptr(d*4)))
	}
	f.Set(sText, 0)
	e.Free(cov)
	sum := checksum(postings, matches)

	// Tear down the index object by object.
	for i := 0; i < idxBuckets; i++ {
		for post := sp.Load(buckets + appkit.Ptr(i*4)); post != 0; {
			next := sp.Load(post + pNext)
			if snip := sp.Load(post + pSnippet); snip != 0 {
				e.Free(snip)
			}
			e.Free(post)
			post = next
		}
	}
	e.Free(buckets)
	e.Free(matrix)
	e.Finalize()
	return sum
}

// writeSnippet stores up to snippetLen bytes of context at pos.
func writeSnippet(sp *mem.Space, snip appkit.Ptr, doc []byte, pos int) {
	end := pos + snippetLen
	if end > len(doc) {
		end = len(doc)
	}
	if pos > len(doc) {
		pos = len(doc)
	}
	chunk := doc[pos:end]
	sp.Store(snip+snipLen, uint32(len(chunk)))
	appkit.StoreBytes(sp, snip+snipBytes, chunk)
}

// scorePairs walks every index bucket and counts, for each pair of
// documents, the fingerprints they share — the posting-intensive phase.
func scorePairs(sp *mem.Space, buckets, matrix appkit.Ptr, scale int) {
	for i := 0; i < idxBuckets; i++ {
		for a := sp.Load(buckets + appkit.Ptr(i*4)); a != 0; a = sp.Load(a + pNext) {
			ah := sp.Load(a + pHash)
			ad := int(sp.Load(a+pDocPos) >> 16)
			for b := sp.Load(a + pNext); b != 0; b = sp.Load(b + pNext) {
				if sp.Load(b+pHash) != ah {
					continue
				}
				bd := int(sp.Load(b+pDocPos) >> 16)
				if ad == bd {
					continue
				}
				lo, hi := ad, bd
				if lo > hi {
					lo, hi = hi, lo
				}
				cell := matrix + appkit.Ptr((lo*scale+hi)*4)
				sp.Store(cell, sp.Load(cell)+1)
			}
		}
	}
}

// coveragePass computes, for every document, how many of its fingerprints
// are shared with some other document — moss's per-file match percentage.
// Like scorePairs it is dominated by walks over the small posting nodes,
// so its speed depends on how densely they are packed.
func coveragePass(sp *mem.Space, buckets, cov appkit.Ptr, scale int) {
	for i := 0; i < scale; i++ {
		sp.Store(cov+appkit.Ptr(i*4), 0)
	}
	for i := 0; i < idxBuckets; i++ {
		head := sp.Load(buckets + appkit.Ptr(i*4))
		for a := head; a != 0; a = sp.Load(a + pNext) {
			ah := sp.Load(a + pHash)
			ad := int(sp.Load(a+pDocPos) >> 16)
			for b := head; b != 0; b = sp.Load(b + pNext) {
				if b == a || sp.Load(b+pHash) != ah {
					continue
				}
				if int(sp.Load(b+pDocPos)>>16) != ad {
					cell := cov + appkit.Ptr(ad*4)
					sp.Store(cell, sp.Load(cell)+1)
					break
				}
			}
		}
	}
}

// collectMatches reads the pair matrix and returns packed (pair, count)
// values for every pair over the report threshold.
func collectMatches(sp *mem.Space, matrix appkit.Ptr, scale int) []uint32 {
	var out []uint32
	for lo := 0; lo < scale; lo++ {
		for hi := lo + 1; hi < scale; hi++ {
			n := sp.Load(matrix + appkit.Ptr((lo*scale+hi)*4))
			if n >= matchThresh {
				out = append(out, pairKey(lo, hi), n)
			}
		}
	}
	return out
}
