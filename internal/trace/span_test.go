package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// emitSpan pushes a begin/end pair onto t with explicit cycle stamps (the
// tracer is clock-less, so the stamps survive).
func emitSpan(t *Tracer, kind SpanKind, req, shard int, begin, end uint64) {
	t.Emit(SpanBegin(kind, req, shard, begin))
	t.Emit(SpanEnd(kind, req, shard, end))
}

func TestSpanKindNames(t *testing.T) {
	want := map[SpanKind]string{
		SpanQueue:      "queue",
		SpanParse:      "parse",
		SpanWork:       "work",
		SpanDelete:     "delete",
		SpanSweep:      "sweep",
		SpanMigrate:    "migrate",
		SpanStealStall: "steal-stall",
	}
	if len(SpanKinds()) != len(want) {
		t.Fatalf("SpanKinds() has %d kinds, want %d", len(SpanKinds()), len(want))
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if SpanInvalid.String() != "invalid" || SpanKind(200).String() != "invalid" {
		t.Errorf("invalid kinds must render as invalid")
	}
}

// TestSpanProfileTiledRequest reconstructs a request whose phases tile its
// latency window exactly — the shape the serving simulator emits — and
// checks attribution and conservation.
func TestSpanProfileTiledRequest(t *testing.T) {
	tr := New(64)
	// Request 7 on shard 2: queue 100, parse 40, sweep 10, work 200, delete 30.
	emitSpan(tr, SpanQueue, 7, 2, 1000, 1100)
	emitSpan(tr, SpanParse, 7, 2, 1100, 1140)
	emitSpan(tr, SpanSweep, 7, 2, 1140, 1150)
	emitSpan(tr, SpanWork, 7, 2, 1150, 1350)
	emitSpan(tr, SpanDelete, 7, 2, 1350, 1380)
	// A shard-level idle sweep on shard 0, unrelated to any request.
	emitSpan(tr, SpanSweep, -1, 0, 500, 600)

	p, err := BuildSpanProfile(tr.Events(), tr.Dropped())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Requests) != 1 {
		t.Fatalf("got %d requests, want 1", len(p.Requests))
	}
	r := p.Requests[0]
	if r.Request != 7 || r.Shard != 2 {
		t.Errorf("request identity = (%d, shard %d), want (7, 2)", r.Request, r.Shard)
	}
	if r.Latency() != 380 {
		t.Errorf("latency = %d, want 380", r.Latency())
	}
	for kind, want := range map[SpanKind]uint64{
		SpanQueue: 100, SpanParse: 40, SpanSweep: 10, SpanWork: 200, SpanDelete: 30,
	} {
		if r.Phases[kind] != want {
			t.Errorf("phase %s = %d, want %d", kind, r.Phases[kind], want)
		}
	}
	if err := p.Conserved(); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if len(p.Track) != 1 || p.Track[0].Kind != SpanSweep || p.TrackTotals[SpanSweep] != 100 {
		t.Errorf("track spans = %+v (totals %v)", p.Track, p.TrackTotals)
	}
}

// TestSpanProfileNesting checks self-time: cycles nested inside a span are
// attributed to the inner kind, and conservation still holds because self
// times tile the window.
func TestSpanProfileNesting(t *testing.T) {
	tr := New(64)
	// A 100-cycle work span with a 25-cycle sweep tax in its middle.
	tr.Emit(SpanBegin(SpanWork, 3, 0, 1000))
	emitSpan(tr, SpanSweep, 3, 0, 1040, 1065)
	tr.Emit(SpanEnd(SpanWork, 3, 0, 1100))

	p, err := BuildSpanProfile(tr.Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Requests[0]
	if r.Phases[SpanWork] != 75 || r.Phases[SpanSweep] != 25 {
		t.Errorf("work=%d sweep=%d, want 75/25", r.Phases[SpanWork], r.Phases[SpanSweep])
	}
	if err := p.Conserved(); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

// TestSpanProfileGapFailsConservation: a request whose spans leave a hole
// must be reported, not silently tabulated.
func TestSpanProfileGapFailsConservation(t *testing.T) {
	tr := New(64)
	emitSpan(tr, SpanParse, 1, 0, 100, 140)
	emitSpan(tr, SpanWork, 1, 0, 150, 200) // 10-cycle gap
	p, err := BuildSpanProfile(tr.Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Conserved(); err == nil {
		t.Fatal("conservation passed over a 10-cycle gap")
	}
}

// TestSpanProfileMismatch: an end closing the wrong kind is an emitter bug
// and must error on an untruncated stream.
func TestSpanProfileMismatch(t *testing.T) {
	tr := New(64)
	tr.Emit(SpanBegin(SpanParse, 1, 0, 100))
	tr.Emit(SpanEnd(SpanWork, 1, 0, 140))
	if _, err := BuildSpanProfile(tr.Events(), 0); err == nil {
		t.Fatal("mismatched span pair did not error")
	}
	tr2 := New(64)
	tr2.Emit(SpanEnd(SpanWork, 1, 0, 140))
	if _, err := BuildSpanProfile(tr2.Events(), 0); err == nil {
		t.Fatal("orphan span-end did not error on an untruncated stream")
	}
}

// TestSpanProfileTruncated: with a nonzero drop count, unmatched pairs are
// counted and conservation refuses rather than producing a wrong account.
func TestSpanProfileTruncated(t *testing.T) {
	tr := New(64)
	tr.Emit(SpanEnd(SpanWork, 1, 0, 140))     // begin fell out of the ring
	emitSpan(tr, SpanParse, 2, 0, 100, 150)   // intact pair
	tr.Emit(SpanBegin(SpanDelete, 2, 0, 150)) // end never made it
	p, err := BuildSpanProfile(tr.Events(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Truncated || p.Unmatched != 2 || p.Dropped != 5 {
		t.Errorf("truncated=%v unmatched=%d dropped=%d, want true/2/5",
			p.Truncated, p.Unmatched, p.Dropped)
	}
	if err := p.Conserved(); err == nil {
		t.Error("conservation must refuse a truncated profile")
	}
	if len(p.Requests) != 1 || p.Requests[0].Request != 2 {
		t.Errorf("intact request not reconstructed: %+v", p.Requests)
	}
}

func TestSpanPhaseQuantiles(t *testing.T) {
	tr := New(256)
	lat := []uint64{50, 300, 100, 300, 20}
	for i, l := range lat {
		emitSpan(tr, SpanWork, i, 0, 1000, 1000+l)
	}
	p, err := BuildSpanProfile(tr.Events(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vals := p.PhaseValues(SpanWork)
	if got := QuantileExact(vals, 0.5); got != 100 {
		t.Errorf("p50 = %d, want 100", got)
	}
	if got := QuantileExact(vals, 0.99); got != 300 {
		t.Errorf("p99 = %d, want 300", got)
	}
	if got := QuantileExact(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// TestSpanJSONLRoundTrip: span events survive the JSONL sink like every
// other kind.
func TestSpanJSONLRoundTrip(t *testing.T) {
	tr := New(16)
	emitSpan(tr, SpanQueue, 4, 1, 10, 30)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"span-begin"`) {
		t.Fatalf("JSONL missing span-begin: %s", buf.String())
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildSpanProfile(back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Requests) != 1 || p.Requests[0].Phases[SpanQueue] != 20 {
		t.Errorf("round-tripped profile wrong: %+v", p.Requests)
	}
}

// TestSpanChromeExport: the span timeline is valid JSON with one process
// per shard and request rows on tid request+1.
func TestSpanChromeExport(t *testing.T) {
	tr := New(64)
	emitSpan(tr, SpanQueue, 0, 1, 0, 50)
	emitSpan(tr, SpanWork, 0, 1, 50, 90)
	emitSpan(tr, SpanMigrate, -1, 2, 10, 40)
	var buf bytes.Buffer
	if err := WriteSpanChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var sawReqRow, sawTrackRow bool
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "work" && ev["pid"] == float64(2) && ev["tid"] == float64(1) {
			sawReqRow = true
		}
		if ev["ph"] == "X" && ev["name"] == "migrate" && ev["pid"] == float64(3) && ev["tid"] == float64(0) {
			sawTrackRow = true
		}
	}
	if !sawReqRow || !sawTrackRow {
		t.Errorf("timeline rows missing: request=%v track=%v\n%s", sawReqRow, sawTrackRow, buf.String())
	}
}
