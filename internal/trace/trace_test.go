package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingKeepsLastEvents(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindRalloc, Region: int32(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, want)
		}
		if want := int32(6 + i); ev.Region != want {
			t.Errorf("event %d: region = %d, want %d", i, ev.Region, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.Emitted() != 10 {
		t.Errorf("emitted = %d, want 10", tr.Emitted())
	}
}

func TestClock(t *testing.T) {
	tr := New(8)
	var now uint64
	tr.SetClock(func() uint64 { return now })
	now = 42
	tr.Emit(Event{Kind: KindRegionCreate, Region: 0})
	now = 99
	tr.Emit(Event{Kind: KindRegionDelete, Region: 0})
	evs := tr.Events()
	if evs[0].Cycle != 42 || evs[1].Cycle != 99 {
		t.Fatalf("cycles = %d, %d; want 42, 99", evs[0].Cycle, evs[1].Cycle)
	}
	// InitClock must not replace an existing clock.
	tr.InitClock(func() uint64 { return 0 })
	now = 7
	tr.Emit(Event{Kind: KindRalloc, Region: 0})
	if evs := tr.Events(); evs[2].Cycle != 7 {
		t.Fatalf("cycle after InitClock = %d, want 7", evs[2].Cycle)
	}
}

func TestReset(t *testing.T) {
	tr := New(2)
	tr.Emit(Event{Kind: KindRalloc})
	tr.Emit(Event{Kind: KindRalloc})
	tr.Emit(Event{Kind: KindRalloc})
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after reset: len %d dropped %d", tr.Len(), tr.Dropped())
	}
	tr.Emit(Event{Kind: KindRstrAlloc})
	if evs := tr.Events(); len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("after reset: %+v (seq must keep increasing)", evs)
	}
}

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if other, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share name %q", other, k, name)
		}
		seen[name] = k
	}
	if Kind(250).String() != "invalid" {
		t.Errorf("out-of-range kind not invalid")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 0, Cycle: 10, Kind: KindRegionCreate, Region: 0, Addr: 4096, Aux: -1},
		{Seq: 1, Cycle: 20, Kind: KindRalloc, Region: 0, Addr: 4200, Size: 16, Aux: -1, Site: "cell"},
		{Seq: 2, Cycle: 30, Kind: KindBarrierRegion, Region: 1, Addr: 4204, Aux: 0},
		{Seq: 3, Cycle: 40, Kind: KindRegionDeleteFail, Region: 0, Aux: 2},
		{Seq: 4, Cycle: 50, Kind: KindRegionDelete, Region: 0, Size: 16, Aux: 1},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	// One line per event, each a valid JSON object.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(in) {
		t.Fatalf("%d lines, want %d", len(lines), len(in))
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("invalid JSON line: %s", ln)
		}
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip lost events: %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	evs := []Event{
		{Cycle: 1, Kind: KindRegionCreate, Region: 0, Aux: -1},
		{Cycle: 5, Kind: KindRalloc, Region: 0, Size: 16, Aux: -1, Site: "cell"},
		{Cycle: 7, Kind: KindGCMarkBegin, Region: -1, Aux: 1},
		{Cycle: 9, Kind: KindGCMarkEnd, Region: -1, Aux: 1},
		{Cycle: 9, Kind: KindGCSweepBegin, Region: -1, Aux: 1},
		{Cycle: 12, Kind: KindGCSweepEnd, Region: -1, Size: 64, Aux: 1},
		{Cycle: 20, Kind: KindRegionDelete, Region: 0, Size: 16, Aux: 1},
		{Cycle: 21, Kind: KindRegionCreate, Region: 1, Aux: -1}, // leaked
		{Cycle: 25, Kind: KindParWrite, Region: -1, Aux: 3},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var slices, instants int
	var leaked bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if args, ok := ev["args"].(map[string]any); ok && args["leaked"] == true {
				leaked = true
			}
		case "i":
			instants++
		}
	}
	// region#0, gc-mark, gc-sweep, leaked region#1.
	if slices != 4 {
		t.Errorf("slices = %d, want 4", slices)
	}
	if instants != 2 { // ralloc + par-write
		t.Errorf("instants = %d, want 2", instants)
	}
	if !leaked {
		t.Errorf("leaked region not marked")
	}
}
