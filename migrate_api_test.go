package regions_test

import (
	"errors"
	"testing"

	"regions"
)

// TestConstructionOptions checks the four setters that attach a page
// limit, a tracer, a registry and a fault plan take effect when called
// right after New, before the first region.
func TestConstructionOptions(t *testing.T) {
	tr := regions.NewTracer(64)
	reg := regions.NewMetricsRegistry()
	sys := regions.New()
	sys.SetPageLimit(2)
	sys.SetTracer(tr)
	sys.SetMetrics(reg)
	if sys.Trace() != tr {
		t.Error("SetTracer did not attach the tracer")
	}
	if sys.Metrics() != reg {
		t.Error("SetMetrics did not attach the registry")
	}
	r := sys.NewRegion() // one page: fits the limit
	if _, err := sys.TryRstrAlloc(r, 3*4096); !errors.Is(err, regions.ErrOutOfMemory) {
		t.Errorf("SetPageLimit(2) did not cap the OS: err = %v", err)
	}
	if n := len(tr.Events()); n == 0 {
		t.Error("tracer attached after New recorded nothing")
	}
	if _, ok := reg.Snapshot().Counter("regions_core_regions_created_total"); !ok {
		t.Error("registry attached after New counted nothing")
	}

	faulty := regions.New()
	faulty.SetFaultPlan(&regions.FaultPlan{FailNth: 1})
	if _, err := faulty.TryNewRegion(); !errors.Is(err, regions.ErrOutOfMemory) {
		t.Errorf("SetFaultPlan did not inject: err = %v", err)
	}
}

// TestExportImportPublicAPI moves a region between two Systems through the
// public surface: digest preserved, stale handle faults with
// FaultMigratedRegion, destination verifies and deletes cleanly.
func TestExportImportPublicAPI(t *testing.T) {
	src, dst := regions.New(), regions.New()
	cln := src.SizeCleanup(8)
	dst.SizeCleanup(8) // import remaps cleanups by name: register on the receiver

	r := src.NewRegion()
	var prev regions.Ptr
	for i := 0; i < 32; i++ {
		p := src.Ralloc(r, 8, cln)
		src.Store(p, uint32(i+1))
		src.StorePtr(p+4, prev) // sameregion chain
		prev = p
	}
	want := src.ContentChecksum(r)

	if !src.Exportable(r) {
		t.Fatal("chain region not exportable")
	}
	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("ExportRegion: %v", err)
	}
	moved, err := dst.ImportRegion(rec)
	if err != nil {
		t.Fatalf("ImportRegion: %v", err)
	}
	if got := dst.ContentChecksum(moved); got != want {
		t.Errorf("content digest changed in transit: %08x, want %08x", got, want)
	}
	np, ok := rec.Translate(prev)
	if !ok {
		t.Fatal("chain head did not translate")
	}
	if got := dst.Load(np); got != 32 {
		t.Errorf("translated head holds %d, want 32", got)
	}

	// The source handle is a tombstone now.
	func() {
		defer func() {
			f, ok := recover().(*regions.Fault)
			if !ok || f.Kind != regions.FaultMigratedRegion {
				t.Errorf("stale use recovered %v, want FaultMigratedRegion", f)
			}
		}()
		src.Ralloc(r, 8, cln)
	}()

	if err := src.Verify(); err != nil {
		t.Errorf("source verify after export: %v", err)
	}
	if err := dst.Verify(); err != nil {
		t.Errorf("destination verify after import: %v", err)
	}
	if live := dst.LiveRegions(); len(live) != 1 || live[0] != moved {
		t.Errorf("LiveRegions = %v, want the imported region only", live)
	}
	if !dst.DeleteRegion(moved) {
		t.Error("imported region refused deletion")
	}
}

// TestExportRefusalsPublicAPI pins the refusal sentinels through the public
// surface: a referenced region refuses with ErrExportReferenced and stays
// fully usable; a record naming an unregistered cleanup refuses import with
// ErrImportCleanup and stays importable elsewhere.
func TestExportRefusalsPublicAPI(t *testing.T) {
	src := regions.New()
	cln := src.SizeCleanup(8)

	f := src.PushFrame(1)
	defer src.PopFrame()
	r := src.NewRegion()
	p := src.Ralloc(r, 8, cln)
	f.Set(0, p) // frame reference: not quiescent

	if src.Exportable(r) {
		t.Error("referenced region claims exportable")
	}
	if _, err := src.ExportRegion(r); !errors.Is(err, regions.ErrExportReferenced) {
		t.Fatalf("export of referenced region: err = %v, want ErrExportReferenced", err)
	}
	src.Store(p, 7) // refusal left the region usable
	f.Set(0, 0)

	rec, err := src.ExportRegion(r)
	if err != nil {
		t.Fatalf("export after clearing the frame: %v", err)
	}
	bare := regions.New() // never registered the "size:8" cleanup
	if _, err := bare.ImportRegion(rec); !errors.Is(err, regions.ErrImportCleanup) {
		t.Fatalf("import without cleanups: err = %v, want ErrImportCleanup", err)
	}
	ready := regions.New()
	ready.SizeCleanup(8)
	if _, err := ready.ImportRegion(rec); err != nil {
		t.Fatalf("record not reusable after refused import: %v", err)
	}
}
