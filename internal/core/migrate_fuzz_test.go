package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"regions/internal/mem"
)

// Edits FuzzImportRegion decodes from its input and applies to an exported
// record before importing it. Each edit is fuzzEditLen bytes: an op byte
// (modulo fuzzEdits), three selector bytes a, b, c, and two little-endian
// words, an index and a value.
const (
	editPages    = iota // rec.Pages = int32(value)
	editRunPages        // run a's Pages = int32(value)
	editBytes           // rec.Bytes = value << (b % 48)
	editWord            // run a's word at index = value in mode c
	editHdrWord         // region structure word a%hdrWords on the home run = value in mode c
	editRunWords        // run a gains (index%2 == 0) or loses index/2 % 2048 words; gained ones hold value
	editHeader          // rec.OldHdr = value in mode c
	editRunFirst        // run a's OldFirst = value in mode c
	editBlock           // parked block a = {value in mode c, int32(index)}
	editAddBlock        // a new parked block {value in mode c, int32(index)}
	editDropRun         // run a is removed
	editDupRun          // run a is copied onto the normal (b even) or string list
	editCleanup         // cleanup ref a gets id index%4, or (b odd) another registered name
	fuzzEdits
	fuzzEditLen = 12
)

// fuzzSource exports a region built on a fresh runtime. The one-page kind is
// a short list; the full kind has normal runs, a multi-page object's run,
// an array, string runs and parked string blocks.
func fuzzSource(full bool) *RegionRecord {
	src, _ := newRT(true)
	cln := src.SizeCleanup(8)
	src.SizeCleanup(2 * mem.PageSize)
	r := src.NewRegion()
	var head Ptr
	for i := 0; i < 4; i++ {
		head = cons(src, cln, r, uint32(i), head)
	}
	if full {
		buildMigratable(src, r)
		for i := 0; i < 400; i++ { // a second normal page
			head = cons(src, cln, r, uint32(i), head)
		}
		var strs []Ptr
		for i := 0; i < 24; i++ { // string pages beyond the first
			p := src.RstrAlloc(r, 64+i*40)
			src.Space().Store(p, uint32(i))
			strs = append(strs, p)
		}
		for i := 2; i < len(strs); i += 3 {
			src.RstrFree(r, strs[i], 64+i*40)
		}
	}
	rec, err := src.ExportRegion(r)
	if err != nil {
		panic(err)
	}
	return rec
}

// fuzzReceiver is a runtime to import into. It registers the source's
// cleanups and "other", a list cell whose cleanup destroys its link, and
// holds one live region of its own: a list that a global slot points at,
// so a record word aliasing it is a cross-region word. It returns the
// list's head and the cell cleanup too.
func fuzzReceiver(noStrPool, deferred bool) (rt *Runtime, own *Region, head Ptr, cell CleanupID) {
	rt, _ = newRTOpts(Options{Safe: true, NoStrPool: noStrPool, DeferredDelete: deferred})
	cln := rt.SizeCleanup(8)
	rt.SizeCleanup(2 * mem.PageSize)
	cell = rt.RegisterCleanup("other", listCleanup)
	rt.NewRegion() // shifts the receiver's layout off the source's
	own = rt.NewRegion()
	for i := 0; i < 8; i++ {
		head = cons(rt, cln, own, uint32(i), head)
	}
	rt.StoreGlobalPtr(rt.AllocGlobals(1), head)
	return rt, own, head, cell
}

// editRecord applies the edits data encodes to rec. Addresses in mode 1
// fall inside one of the record's runs and in mode 2 inside the
// receiver's own region's page; mode 0 is the raw value.
func editRecord(rec *RegionRecord, own *Region, data []byte) {
	run := func(a byte) *PageRun {
		n := len(rec.Normal) + len(rec.Str)
		if n == 0 {
			return nil
		}
		if i := int(a) % n; i < len(rec.Normal) {
			return &rec.Normal[i]
		}
		return &rec.Str[int(a)%n-len(rec.Normal)]
	}
	addr := func(mode, b byte, v uint32) Word {
		switch mode % 3 {
		case 1:
			if r := run(b); r != nil {
				return r.OldFirst + v%(uint32(max(1, min(r.Pages, maxEntryPages)))*mem.PageSize)
			}
		case 2:
			return own.hdr&^Ptr(mem.PageSize-1) + v%mem.PageSize
		}
		return v
	}
	for ; len(data) >= fuzzEditLen; data = data[fuzzEditLen:] {
		op, a, b, c := data[0]%fuzzEdits, data[1], data[2], data[3]
		idx, v := binary.LittleEndian.Uint32(data[4:]), binary.LittleEndian.Uint32(data[8:])
		r := run(a)
		switch op {
		case editPages:
			rec.Pages = int(int32(v))
		case editRunPages:
			if r != nil {
				r.Pages = int(int32(v))
			}
		case editBytes:
			rec.Bytes = uint64(v) << (b % 48)
		case editWord:
			if r != nil && len(r.Words) > 0 {
				r.Words[int(idx)%len(r.Words)] = addr(c, b, v)
			}
		case editHdrWord:
			for i := range rec.Normal {
				h := &rec.Normal[i]
				if off := int(rec.OldHdr-h.OldFirst)/mem.WordSize + int(a)%hdrWords; off >= 0 && off < len(h.Words) {
					h.Words[off] = addr(c, b, v)
					break
				}
			}
		case editRunWords:
			if r != nil {
				if n := int(idx/2) % 2048; idx%2 == 0 {
					for range n {
						r.Words = append(r.Words, v)
					}
				} else {
					r.Words = r.Words[:max(0, len(r.Words)-n)]
				}
			}
		case editHeader:
			rec.OldHdr = addr(c, b, v)
		case editRunFirst:
			if r != nil {
				r.OldFirst = addr(c, b, v)
			}
		case editBlock:
			if len(rec.StrPool) > 0 {
				rec.StrPool[int(a)%len(rec.StrPool)] = StrPoolRecord{OldAddr: addr(c, b, v), Cap: int32(idx)}
			}
		case editAddBlock:
			rec.StrPool = append(rec.StrPool, StrPoolRecord{OldAddr: addr(c, b, v), Cap: int32(idx)})
		case editDropRun:
			if i := int(a) % max(1, len(rec.Normal)+len(rec.Str)); i < len(rec.Normal) {
				rec.Normal = slices.Delete(rec.Normal, i, i+1)
			} else if i -= len(rec.Normal); i < len(rec.Str) {
				rec.Str = slices.Delete(rec.Str, i, i+1)
			}
		case editDupRun:
			if r != nil {
				cp := PageRun{OldFirst: r.OldFirst, Pages: r.Pages, Words: slices.Clone(r.Words)}
				if b%2 == 0 {
					rec.Normal = append(rec.Normal, cp)
				} else {
					rec.Str = append(rec.Str, cp)
				}
			}
		case editCleanup:
			if len(rec.Cleanups) > 0 {
				ref := &rec.Cleanups[int(a)%len(rec.Cleanups)]
				if b%2 == 0 {
					ref.ID = CleanupID(idx % 4)
				} else {
					ref.Name = "other"
				}
			}
		}
	}
}

// edit encodes one edit for a seed input.
func edit(op, a, b, c byte, idx, v uint32) []byte {
	e := []byte{op, a, b, c}
	e = binary.LittleEndian.AppendUint32(e, idx)
	return binary.LittleEndian.AppendUint32(e, v)
}

// FuzzImportRegion imports mutated exported records. The first input byte
// picks the source (bit 0: one page or the full mix) and the receiver's
// options (bit 1: NoStrPool, bit 2: DeferredDelete); the rest are edits.
// An import that succeeds must leave the receiver verifying; the region
// must then take a string and a list cell pointing into the receiver's own
// region with the receiver still verifying, and delete cleanly, its cleanup
// pass finding the cell, so the receiver verifies again. An import that
// fails must return an error or panic with a *Fault and leave the receiver
// verifying. Any other panic fails.
func FuzzImportRegion(f *testing.F) {
	seed := func(first byte, edits ...[]byte) []byte {
		return slices.Concat(append([][]byte{{first}}, edits...)...)
	}
	// The four one-page records ImportRegion once accepted, or panicked on.
	f.Add(seed(0, edit(editPages, 0, 0, 0, 0, 1_000_000)))
	f.Add(seed(0, edit(editRunPages, 0, 0, 0, 0, ^uint32(2)))) // -3 pages
	f.Add(seed(0, edit(editBytes, 0, 40, 0, 0, 1)))            // 2^40 bytes
	f.Add(seed(0, edit(editRunWords, 0, 0, 0, 2*mem.PageWords, 1)))
	// Valid records, and ones aimed at the region structure, the string
	// pool and the receiver's own region.
	f.Add(seed(1))
	f.Add(seed(7))
	f.Add(seed(1, edit(editHdrWord, offStringAvail/mem.WordSize, 0, 0, 0, 8)))
	f.Add(seed(1, edit(editAddBlock, 0, 0, 1, 64, 520)))
	f.Add(seed(1, edit(editWord, 0, 0, 2, 40, 16)))
	f.Add(seed(3, edit(editDupRun, 1, 1, 0, 0, 0), edit(editCleanup, 0, 1, 0, 0, 0)))
	f.Add(seed(0, edit(editHdrWord, offNormalAvail/mem.WordSize, 0, 0, 0, 0)))

	sources := [2]*RegionRecord{fuzzSource(false), fuzzSource(true)}
	if full := sources[1]; len(full.Normal) < 3 || len(full.Str) < 2 || len(full.StrPool) == 0 ||
		!slices.ContainsFunc(full.Normal, func(run PageRun) bool { return run.Pages > 1 }) {
		f.Fatalf("the full source exports %d normal runs, %d string runs, %d parked blocks; want a multi-page run among several, two string runs and parked blocks",
			len(full.Normal), len(full.Str), len(full.StrPool))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rec := cloneRecord(sources[data[0]&1])
		dst, own, head, cell := fuzzReceiver(data[0]&2 != 0, data[0]&4 != 0)
		editRecord(rec, own, data[1:])

		r, err := tryImport(dst, rec)
		if verr := dst.Verify(); verr != nil {
			t.Fatalf("import = %v, %v; Verify: %v", r, err, verr)
		}
		if err != nil {
			if r != nil {
				t.Fatalf("import returned both %v and %v", r, err)
			}
			return
		}
		if _, aerr := dst.TryRstrAlloc(r, 24); aerr != nil {
			t.Fatalf("a string in the imported region: %v", aerr)
		}
		p, aerr := dst.TryRalloc(r, 8, cell)
		if aerr != nil {
			t.Fatalf("a cell in the imported region: %v", aerr)
		}
		dst.StorePtr(p+mem.WordSize, head)
		if verr := dst.Verify(); verr != nil {
			t.Fatalf("Verify after allocating in the imported region: %v", verr)
		}
		if ok, derr := dst.TryDeleteRegion(r); !ok || derr != nil {
			t.Fatalf("delete of the imported region = %v, %v", ok, derr)
		}
		if verr := dst.Verify(); verr != nil {
			t.Fatalf("Verify after deleting the imported region: %v", verr)
		}
	})
}

// cloneRecord copies rec deeply enough that edits leave rec as it was.
func cloneRecord(rec *RegionRecord) *RegionRecord {
	cp := *rec
	cp.Normal, cp.Str = slices.Clone(rec.Normal), slices.Clone(rec.Str)
	for _, runs := range [][]PageRun{cp.Normal, cp.Str} {
		for i := range runs {
			runs[i].Words = slices.Clone(runs[i].Words)
		}
	}
	cp.Cleanups, cp.StrPool = slices.Clone(rec.Cleanups), slices.Clone(rec.StrPool)
	return &cp
}

// tryImport imports rec into rt, turning a *Fault panic into its error.
// Any other panic propagates.
func tryImport(rt *Runtime, rec *RegionRecord) (r *Region, err error) {
	defer func() {
		if p := recover(); p != nil {
			var f *Fault
			if e, ok := p.(error); !ok || !errors.As(e, &f) {
				panic(p)
			}
			r, err = nil, f
		}
	}()
	return rt.ImportRegion(rec)
}
