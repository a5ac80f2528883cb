package core

import (
	"errors"
	"fmt"
	"testing"

	"regions/internal/mem"
	"regions/internal/trace"
)

// buildMigratable fills r with the mix migration must carry intact: a linked
// list of intra-region pointers, an array, a multi-page object, and string
// payload. It returns the list head and the expected list values.
func buildMigratable(rt *Runtime, r *Region) (head Ptr, want []uint32) {
	cln := rt.SizeCleanup(8)
	for i := 0; i < 40; i++ {
		head = cons(rt, cln, r, uint32(i), head)
		want = append([]uint32{uint32(i)}, want...)
	}
	arr := rt.RarrayAlloc(r, 8, 8, rt.SizeCleanup(8))
	for i := 0; i < 8; i++ {
		rt.Space().Store(arr+Ptr(i*8), uint32(100+i))
	}
	big := rt.Ralloc(r, 2*mem.PageSize, rt.SizeCleanup(2*mem.PageSize))
	rt.Space().Store(big, 0xabc)
	rt.Space().Store(big+Ptr(2*mem.PageSize)-4, 0xdef)
	s := rt.RstrAlloc(r, 256)
	for i := 0; i < 256; i += 4 {
		rt.Space().Store(s+Ptr(i), uint32(0x51000+i))
	}
	return head, want
}

// walkList follows the cons list from head and returns the values found.
func walkList(rt *Runtime, head Ptr) []uint32 {
	var got []uint32
	for p := head; p != 0; p = rt.Space().Load(p + 4) {
		got = append(got, rt.Space().Load(p))
	}
	return got
}

func TestMigrateRoundTrip(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRT(true)
	// Same cleanup names on both sides (ids may differ; see remap test).
	for _, rt := range []*Runtime{src, dst} {
		rt.SizeCleanup(8)
		rt.SizeCleanup(2 * mem.PageSize)
	}
	r := src.NewRegion()
	head, want := buildMigratable(src, r)
	sum := src.ContentChecksum(r)

	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if rec.Pages < 4 {
		t.Fatalf("record covers %d pages, want several", rec.Pages)
	}
	if !r.Migrated() || !r.Deleted() {
		t.Fatalf("exported handle not a tombstone: %v", r)
	}
	if err := src.Verify(); err != nil {
		t.Fatalf("donor verify after export: %v", err)
	}

	imp, err := dst.ImportRegion(rec)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("receiver verify after import: %v", err)
	}
	if got := dst.ContentChecksum(imp); got != sum {
		t.Fatalf("content checksum changed across migration: %#x -> %#x", sum, got)
	}
	if imp.Bytes() != rec.Bytes || imp.Allocs() != rec.Allocs {
		t.Fatalf("imported stats %d/%d, record %d/%d",
			imp.Bytes(), imp.Allocs(), rec.Bytes, rec.Allocs)
	}

	newHead, ok := rec.Translate(head)
	if !ok {
		t.Fatalf("Translate(%#x) failed after import", head)
	}
	if got := walkList(dst, newHead); len(got) != len(want) {
		t.Fatalf("list length %d after migration, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("list[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
	if dst.RegionOf(newHead) != imp {
		t.Fatal("translated pointer not owned by the imported region")
	}

	// The imported region is fully live: it accepts allocations and deletes.
	p := dst.Ralloc(imp, 8, dst.SizeCleanup(8))
	dst.StorePtr(p+4, newHead)
	if !dst.DeleteRegion(imp) {
		t.Fatal("delete of imported region refused")
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("receiver verify after delete: %v", err)
	}
}

func TestMigrateTraceEvents(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRT(true)
	ts, td := trace.New(64), trace.New(64)
	src.SetTracer(ts)
	dst.SetTracer(td)
	dst.SizeCleanup(8)
	r := src.NewRegion()
	src.Ralloc(r, 8, src.SizeCleanup(8))
	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportRegion(rec); err != nil {
		t.Fatal(err)
	}
	find := func(tr *trace.Tracer, aux int32) *trace.Event {
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindMigrate && ev.Aux == aux {
				return &ev
			}
		}
		return nil
	}
	out := find(ts, 0)
	in := find(td, 1)
	if out == nil || in == nil {
		t.Fatalf("missing migrate events: export=%v import=%v", out, in)
	}
	if out.Size != int32(rec.Pages) || in.Size != int32(rec.Pages) {
		t.Fatalf("migrate events carry %d/%d pages, record has %d", out.Size, in.Size, rec.Pages)
	}
}

func TestExportRefusals(t *testing.T) {
	rt, _ := newRT(true)
	a, b := rt.NewRegion(), rt.NewRegion()
	cln := rt.SizeCleanup(8)
	pa := rt.Ralloc(a, 8, cln)
	pb := rt.Ralloc(b, 8, cln)
	rt.StorePtr(pa+4, pb) // a's data points into b: b's count is 1

	// b has a live external reference; a holds a cross-region pointer.
	if _, err := rt.ExportRegion(b); !errors.Is(err, ErrExportReferenced) {
		t.Fatalf("export of referenced region: %v, want ErrExportReferenced", err)
	}
	if _, err := rt.ExportRegion(a); !errors.Is(err, ErrExportCrossRegion) {
		t.Fatalf("export of region with outbound pointer: %v, want ErrExportCrossRegion", err)
	}
	// Refusals leave both regions fully usable.
	if b.Deleted() || a.Deleted() {
		t.Fatal("refused export marked a region dead")
	}
	rt.Ralloc(a, 8, cln)
	rt.Ralloc(b, 8, cln)
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify after refused exports: %v", err)
	}

	// Severing the link makes b exportable.
	rt.StorePtr(pa+4, 0)
	if _, err := rt.ExportRegion(b); err != nil {
		t.Fatalf("export after severing reference: %v", err)
	}
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify after export: %v", err)
	}
}

// TestExportRefusesForeignRegion: a runtime refuses to export another
// runtime's region whose header sits at the same address as one of its
// own, typed, before anything is charged, whether its own region holds
// pointers or not. Neither heap changes: both verify, and the foreign
// region stays live with its content.
func TestExportRefusesForeignRegion(t *testing.T) {
	for _, pointers := range []bool{false, true} {
		t.Run(fmt.Sprintf("pointers=%v", pointers), func(t *testing.T) {
			a, ca := newRT(true)
			b, _ := newRT(true)
			own := a.NewRegion()
			if pointers {
				cons(a, a.SizeCleanup(8), own, 1, cons(a, a.SizeCleanup(8), own, 2, 0))
			} else {
				a.RstrAlloc(own, 64)
			}
			foreign := b.NewRegion()
			cln := b.SizeCleanup(8)
			var head Ptr
			for i := 0; i < 40; i++ {
				head = cons(b, cln, foreign, uint32(i), head)
			}
			if own.hdr != foreign.hdr {
				t.Fatalf("headers at %#x and %#x; the test needs one address", own.hdr, foreign.hdr)
			}
			ownSum, foreignSum := a.ContentChecksum(own), b.ContentChecksum(foreign)
			before := ca.TotalCycles()

			if a.Exportable(foreign) {
				t.Error("Exportable accepts another runtime's region")
			}
			_, err := a.ExportRegion(foreign)
			var f *Fault
			if !errors.As(err, &f) || f.Kind != FaultBadArgument {
				t.Fatalf("export of another runtime's region: %v, want a FaultBadArgument *Fault", err)
			}
			if got := ca.TotalCycles(); got != before {
				t.Errorf("the refusal charged %d cycles", got-before)
			}
			for name, rt := range map[string]*Runtime{"exporter": a, "owner": b} {
				if err := rt.Verify(); err != nil {
					t.Errorf("%s verify after the refusal: %v", name, err)
				}
			}
			if foreign.Deleted() || foreign.Migrated() || own.Deleted() {
				t.Fatalf("the refusal retired a region: foreign %v, own %v", foreign, own)
			}
			if got := b.ContentChecksum(foreign); got != foreignSum {
				t.Errorf("foreign region digest %#x, want %#x", got, foreignSum)
			}
			if got := a.ContentChecksum(own); got != ownSum {
				t.Errorf("exporter's region digest %#x, want %#x", got, ownSum)
			}
			if got := walkList(b, head); len(got) != 40 {
				t.Errorf("foreign list holds %d nodes, want 40", len(got))
			}
		})
	}
}

func TestExportRefusedByFrameSlot(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	p := rt.Ralloc(r, 8, rt.SizeCleanup(8))
	f := rt.PushFrame(1)
	f.Set(0, p)
	// The active frame is temp-counted by the quiesce check, exactly as
	// deleteregion would count it.
	if _, err := rt.ExportRegion(r); !errors.Is(err, ErrExportReferenced) {
		t.Fatalf("export with live frame slot: %v, want ErrExportReferenced", err)
	}
	f.Set(0, 0)
	if _, err := rt.ExportRegion(r); err != nil {
		t.Fatalf("export after clearing slot: %v", err)
	}
	rt.PopFrame()
	if err := rt.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestImportCleanupRemapByName(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRT(true)
	// Different registration order: the id of "size8" differs between the
	// runtimes, so the import must rewrite headers, not copy them.
	dst.RegisterCleanup("padding-a", func(*Runtime, Ptr) int { return 4 })
	dst.RegisterCleanup("padding-b", func(*Runtime, Ptr) int { return 4 })
	srcID := src.SizeCleanup(8)
	dstID := dst.SizeCleanup(8)
	if srcID == dstID {
		t.Fatal("test needs differing cleanup ids")
	}

	r := src.NewRegion()
	buildMigratable(src, r)
	sum := src.ContentChecksum(r)

	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportRegion(rec); !errors.Is(err, ErrImportCleanup) {
		t.Fatalf("import without size%d cleanup: %v, want ErrImportCleanup", 2*mem.PageSize, err)
	}
	dst.SizeCleanup(2 * mem.PageSize)
	imp, err := dst.ImportRegion(rec)
	if err != nil {
		t.Fatalf("import after registering: %v", err)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("receiver verify: %v", err)
	}
	// Checksums fold cleanup ids raw, so they are not comparable across
	// differing registration orders — but a second migration back to a
	// runtime with the source's registration order must restore the digest.
	back, _ := newRT(true)
	back.SizeCleanup(8)
	back.SizeCleanup(2 * mem.PageSize)
	rec2, err := dst.ExportRegion(imp)
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	imp2, err := back.ImportRegion(rec2)
	if err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if got := back.ContentChecksum(imp2); got != sum {
		t.Fatalf("digest after two hops %#x, want %#x", got, sum)
	}
	if !back.DeleteRegion(imp2) {
		t.Fatal("delete after two hops refused")
	}
	if err := back.Verify(); err != nil {
		t.Fatalf("verify after delete: %v", err)
	}
}

func TestMigratedHandleFaults(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.Ralloc(r, 8, rt.SizeCleanup(8))
	if _, err := rt.ExportRegion(r); err != nil {
		t.Fatal(err)
	}
	checkKind := func(err error) {
		t.Helper()
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultMigratedRegion {
			t.Fatalf("stale-handle error %v, want FaultMigratedRegion", err)
		}
	}
	_, err := rt.TryRalloc(r, 8, rt.SizeCleanup(8))
	checkKind(err)
	_, err = rt.TryDeleteRegion(r)
	checkKind(err)
	_, err = rt.ExportRegion(r)
	checkKind(err)
	if !r.Migrated() {
		t.Fatal("Migrated() false on tombstone")
	}
}

// TestMigratedHandleString: an exported handle prints as migrated, not as
// deleted, though the shared migrated state is marked deleted too.
func TestMigratedHandleString(t *testing.T) {
	rt, _ := newRT(true)
	r := rt.NewRegion()
	rt.Ralloc(r, 8, rt.SizeCleanup(8))
	if _, err := rt.ExportRegion(r); err != nil {
		t.Fatal(err)
	}
	if got, want := r.String(), fmt.Sprintf("region#%d(migrated, 0 bytes, 0 allocs)", r.id); got != want {
		t.Errorf("exported handle prints %q, want %q", got, want)
	}
}

func TestImportOOMRollsBack(t *testing.T) {
	src, _ := newRT(true)
	dst, _ := newRT(true)
	for _, rt := range []*Runtime{src, dst} {
		rt.SizeCleanup(8)
		rt.SizeCleanup(2 * mem.PageSize)
	}

	r := src.NewRegion()
	buildMigratable(src, r)
	sum := src.ContentChecksum(r)
	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatal(err)
	}

	dst.Space().SetPageLimit(2) // too small for the record's pages
	if _, err := dst.ImportRegion(rec); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("import under page limit: %v, want OOM", err)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("receiver verify after failed import: %v", err)
	}
	if n := len(dst.LiveRegions()); n != 0 {
		t.Fatalf("failed import left %d live regions", n)
	}

	dst.Space().SetPageLimit(0)
	imp, err := dst.ImportRegion(rec)
	if err != nil {
		t.Fatalf("retry import: %v", err)
	}
	if got := dst.ContentChecksum(imp); got != sum {
		t.Fatalf("digest after retried import %#x, want %#x", got, sum)
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("receiver verify after retry: %v", err)
	}
}

func TestContentChecksumPlacementIndependent(t *testing.T) {
	build := func(rt *Runtime) *Region {
		rt.SizeCleanup(8)
		rt.SizeCleanup(2 * mem.PageSize)
		r := rt.NewRegion()
		buildMigratable(rt, r)
		return r
	}
	a, _ := newRT(true)
	ra := build(a)

	// Same content, shifted placement: the second runtime burns address
	// space and a region slot first.
	b, _ := newRT(true)
	scratch := b.NewRegion()
	b.RstrAlloc(scratch, 3*mem.PageSize)
	rb := build(b)

	if sa, sb := a.ContentChecksum(ra), b.ContentChecksum(rb); sa != sb {
		t.Fatalf("checksums differ across placements: %#x vs %#x", sa, sb)
	}
}

func TestLiveRegionsAccessor(t *testing.T) {
	rt, _ := newRT(true)
	a := rt.NewRegion()
	b := rt.NewRegion()
	c := rt.NewRegion()
	rt.DeleteRegion(b)
	if _, err := rt.ExportRegion(c); err != nil {
		t.Fatal(err)
	}
	live := rt.LiveRegions()
	if len(live) != 1 || live[0] != a {
		t.Fatalf("LiveRegions = %v, want [region#0]", live)
	}
}

// exportRecord exports a region holding a short list, and whatever fill
// adds, and returns the record with a fresh receiver that has the list's
// cleanup registered. With a nil fill the record is one page.
func exportRecord(t *testing.T, fill func(src *Runtime, r *Region)) (*RegionRecord, *Runtime) {
	t.Helper()
	src, _ := newRT(true)
	dst, _ := newRT(true)
	cln := src.SizeCleanup(8)
	dst.SizeCleanup(8)
	r := src.NewRegion()
	var head Ptr
	for i := 0; i < 4; i++ {
		head = cons(src, cln, r, uint32(i), head)
	}
	if fill != nil {
		fill(src, r)
	}
	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if fill == nil && (rec.Pages != 1 || len(rec.Normal) != 1 || len(rec.Str) != 0) {
		t.Fatalf("record of %d pages in %d+%d runs, want one page", rec.Pages, len(rec.Normal), len(rec.Str))
	}
	return rec, dst
}

// TestImportRejectsMalformedRecords: ImportRegion rejects a record whose
// counts its pages cannot hold, or whose region structure cannot sit where
// it says, with a FaultBadArgument *Fault before it acquires or charges
// anything, so the receiver verifies and has spent no cycle.
func TestImportRejectsMalformedRecords(t *testing.T) {
	hdrWord := func(rec *RegionRecord, off Ptr) *Word {
		return &rec.Normal[0].Words[(rec.OldHdr-rec.Normal[0].OldFirst+off)/mem.WordSize]
	}
	bigString := func(src *Runtime, r *Region) { src.RstrAlloc(r, 5000) } // a two-page string head
	for _, c := range []struct {
		name string
		fill func(src *Runtime, r *Region)
		edit func(rec *RegionRecord)
	}{
		// The first four are one-page records.
		{"pages-past-its-runs", nil, func(rec *RegionRecord) { rec.Pages = 1_000_000 }},
		{"negative-run", nil, func(rec *RegionRecord) { rec.Normal[0].Pages = -3 }},
		{"bytes-past-its-pages", nil, func(rec *RegionRecord) { rec.Bytes = 1 << 40 }},
		{"words-past-its-run", nil, func(rec *RegionRecord) {
			for range mem.PageWords {
				rec.Normal[0].Words = append(rec.Normal[0].Words, 1)
			}
		}},
		{"run-too-long-for-a-link", nil, func(rec *RegionRecord) {
			rec.Normal[0].Pages, rec.Pages = maxEntryPages+1, maxEntryPages+1
			rec.Normal[0].Words = make([]Word, (maxEntryPages+1)*mem.PageWords)
		}},
		{"run-unaligned", nil, func(rec *RegionRecord) { rec.Normal[0].OldFirst += mem.WordSize }},
		{"header-on-link-word", nil, func(rec *RegionRecord) { rec.OldHdr = rec.Normal[0].OldFirst }},
		{"header-past-its-page", nil, func(rec *RegionRecord) { rec.OldHdr = rec.Normal[0].OldFirst + mem.PageSize - 8 }},
		{"bump-offset-past-its-page", nil, func(rec *RegionRecord) { *hdrWord(rec, offNormalAvail) = mem.PageSize + 4 }},
		{"bump-offset-unaligned", nil, func(rec *RegionRecord) { *hdrWord(rec, offNormalAvail) += 1 }},
		{"data-past-bump-offset", nil, func(rec *RegionRecord) { rec.Normal[0].Words[mem.PageWords-1] = 7 }},
		{"multi-page-head-not-full", bigString, func(rec *RegionRecord) { *hdrWord(rec, offStringAvail) = 100 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec, dst := exportRecord(t, c.fill)
			c.edit(rec)
			counters, mapped := *dst.Counters(), dst.Space().MappedBytes()
			var f *Fault
			if r, err := dst.ImportRegion(rec); r != nil || !errors.As(err, &f) || f.Kind != FaultBadArgument {
				t.Fatalf("import = %v, %v; want a FaultBadArgument", r, err)
			}
			if *dst.Counters() != counters || dst.Space().MappedBytes() != mapped || len(dst.LiveRegions()) != 0 {
				t.Error("the rejected import changed the receiver")
			}
			if err := dst.Verify(); err != nil {
				t.Errorf("verify receiver: %v", err)
			}
		})
	}
}

// TestImportRefusesPlacedRecords: a record whose flaw shows only once its
// pages are placed is refused with a FaultBadArgument *Fault and rolled
// back, so the receiver verifies and still serves allocations. A word
// pointing into one of the receiver's own regions would be a reference no
// count sees; a normal bump offset inside the head entry's objects would
// make the next allocation overwrite them, and one past their end would
// put it where no walk finds it.
func TestImportRefusesPlacedRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(rec *RegionRecord, other *Region)
	}{
		{"word-into-a-receiver-region", func(rec *RegionRecord, other *Region) {
			// The first cell's value word: past the region structure, an integer.
			off := (rec.OldHdr - rec.Normal[0].OldFirst + hdrBytes + mem.WordSize) / mem.WordSize
			rec.Normal[0].Words[off] = other.hdr
		}},
		{"bump-offset-inside-objects", func(rec *RegionRecord, _ *Region) {
			off := rec.OldHdr - rec.Normal[0].OldFirst
			rec.Normal[0].Words[(off+offNormalAvail)/mem.WordSize] = off + hdrBytes
		}},
		{"bump-offset-past-objects", func(rec *RegionRecord, _ *Region) {
			rec.Normal[0].Words[(rec.OldHdr-rec.Normal[0].OldFirst+offNormalAvail)/mem.WordSize] += 8
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec, dst := exportRecord(t, nil)
			dst.NewRegion()
			other := dst.NewRegion()
			if other.hdr&^Ptr(mem.PageSize-1) == rec.Normal[0].OldFirst {
				t.Fatal("the receiver's region sits on the record's page; a word into it would be translated")
			}
			c.edit(rec, other)
			var f *Fault
			if r, err := dst.ImportRegion(rec); r != nil || !errors.As(err, &f) || f.Kind != FaultBadArgument {
				t.Fatalf("import = %v, %v; want a FaultBadArgument", r, err)
			}
			if n := len(dst.LiveRegions()); n != 2 {
				t.Errorf("the refused import left %d live regions, want the receiver's 2", n)
			}
			dst.Ralloc(other, 8, dst.SizeCleanup(8))
			if err := dst.Verify(); err != nil {
				t.Errorf("verify receiver: %v", err)
			}
		})
	}
}
