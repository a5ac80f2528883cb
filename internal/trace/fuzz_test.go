package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONL feeds arbitrary byte streams to the trace reader. The
// contract under test: ReadJSONL never panics; on success the events it
// returns survive re-serialization and span-profile construction; on
// failure it returns an error rather than partial garbage.
func FuzzReadJSONL(f *testing.F) {
	// A valid trace produced by the writer itself.
	var valid bytes.Buffer
	if err := WriteJSONL(&valid, []Event{
		{Seq: 1, Cycle: 10, Kind: KindRegionCreate, Region: 0},
		{Seq: 2, Cycle: 20, Kind: KindRalloc, Region: 0, Addr: 0x1010, Size: 16, Aux: -1, Site: "cell"},
		{Seq: 3, Cycle: 30, Kind: KindFault, Region: -1, Aux: 0, Site: "oom"},
		{Seq: 4, Cycle: 40, Kind: KindRegionDelete, Region: 0},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])                           // truncated mid-line
	f.Add([]byte(""))                                              // empty
	f.Add([]byte("{}\n"))                                          // missing kind
	f.Add([]byte(`{"seq":1,"kind":"no-such-kind"}` + "\n"))        // unknown kind
	f.Add([]byte(`{"seq":1,"kind":"ralloc","region":-5}` + "\n"))  // out-of-range region
	f.Add([]byte(`{"seq":18446744073709551615,"kind":"destroy"}`)) // uint64 edge
	f.Add([]byte("null\n"))                                        // JSON null line
	f.Add([]byte(`[{"seq":1}]`))                                   // array, not object
	f.Add([]byte("{\"kind\":\"ralloc\"}\n{\"kind\":"))             // second line cut off

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must round-trip and profile without panicking.
		var jsonl, chrome bytes.Buffer
		if err := WriteJSONL(&jsonl, events); err != nil {
			t.Fatalf("re-serializing parsed events: %v", err)
		}
		BuildSpanProfile(events, 0)
		if err := WriteChromeTrace(&chrome, events); err != nil {
			t.Fatalf("chrome trace of parsed events: %v", err)
		}
		// The re-serialized form must parse back to the same event count.
		again, err := ReadJSONL(strings.NewReader(jsonl.String()))
		if err != nil {
			t.Fatalf("re-parsing our own output: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
	})
}
