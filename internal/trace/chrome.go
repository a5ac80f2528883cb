package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: the buffered events rendered in the JSON
// format chrome://tracing and https://ui.perfetto.dev load directly. The
// timestamp unit (nominally microseconds) is one simulated cycle.
//
// Mapping:
//
//   - Each region's life becomes one complete ("X") slice on the "regions"
//     track, from its region-create to its region-delete; regions still
//     live at the end of the trace extend to the last event and are marked
//     leaked=true.
//   - GC mark and sweep phases become slices on the "gc" track.
//   - Everything else becomes an instant ("i") event on the track of its
//     subsystem ("runtime", "gc", or "worker-N" for parallel events), with
//     the kind-specific fields in args.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// Track (tid) assignment for the Chrome export.
const (
	tidRuntime = 1
	tidRegions = 2
	tidGC      = 3
	tidWorker0 = 10 // worker w renders as tid 10+w
)

// WriteChromeTrace writes events in Chrome trace_event JSON format.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := []chromeEvent{
		metaThread(tidRuntime, "runtime"),
		metaThread(tidRegions, "regions"),
		metaThread(tidGC, "gc"),
	}
	workers := map[int32]bool{}

	var last uint64
	for _, ev := range events {
		if ev.Cycle > last {
			last = ev.Cycle
		}
	}

	regionBirth := map[int32]uint64{}
	var gcMark, gcSweep uint64

	for _, ev := range events {
		switch ev.Kind {
		case KindRegionCreate:
			regionBirth[ev.Region] = ev.Cycle
		case KindRegionDelete:
			start, ok := regionBirth[ev.Region]
			if !ok {
				start = ev.Cycle // create fell out of the ring
			}
			dur := ev.Cycle - start
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("region#%d", ev.Region),
				Cat:  "region", Ph: "X", Ts: start, Dur: &dur,
				Pid: 1, Tid: tidRegions,
				Args: map[string]any{
					"bytes": ev.Size, "allocs": ev.Aux,
					"create-dropped": !ok,
				},
			})
			delete(regionBirth, ev.Region)
		case KindGCMarkBegin:
			gcMark = ev.Cycle
		case KindGCMarkEnd:
			dur := ev.Cycle - gcMark
			out = append(out, chromeEvent{
				Name: "gc-mark", Cat: "gc", Ph: "X", Ts: gcMark, Dur: &dur,
				Pid: 1, Tid: tidGC, Args: map[string]any{"collection": ev.Aux},
			})
		case KindGCSweepBegin:
			gcSweep = ev.Cycle
		case KindGCSweepEnd:
			dur := ev.Cycle - gcSweep
			out = append(out, chromeEvent{
				Name: "gc-sweep", Cat: "gc", Ph: "X", Ts: gcSweep, Dur: &dur,
				Pid: 1, Tid: tidGC,
				Args: map[string]any{"collection": ev.Aux, "live-bytes": ev.Size},
			})
		default:
			tid := tidRuntime
			cat := "runtime"
			switch ev.Kind {
			case KindParRegionCreate, KindParRegionDelete, KindParRegionDeleteFail, KindParWrite:
				cat = "par"
				tid = tidWorker0
				if ev.Kind == KindParWrite && ev.Aux >= 0 {
					tid = tidWorker0 + int(ev.Aux)
					workers[ev.Aux] = true
				}
			}
			args := map[string]any{}
			if ev.Region >= 0 {
				args["region"] = ev.Region
			}
			if ev.Addr != 0 {
				args["addr"] = ev.Addr
			}
			if ev.Size != 0 {
				args["size"] = ev.Size
			}
			if ev.Aux >= 0 {
				args["aux"] = ev.Aux
			}
			if ev.Site != "" {
				args["site"] = ev.Site
			}
			out = append(out, chromeEvent{
				Name: ev.Kind.String(), Cat: cat, Ph: "i", Ts: ev.Cycle,
				Pid: 1, Tid: tid, S: "t", Args: args,
			})
		}
	}

	// Regions never deleted inside the buffered window: draw them to the
	// end of the trace and mark them. Sorted so output is deterministic.
	leaked := make([]int32, 0, len(regionBirth))
	for id := range regionBirth {
		leaked = append(leaked, id)
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
	for _, id := range leaked {
		dur := last - regionBirth[id]
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("region#%d", id),
			Cat:  "region", Ph: "X", Ts: regionBirth[id], Dur: &dur,
			Pid: 1, Tid: tidRegions,
			Args: map[string]any{"leaked": true},
		})
	}
	workerIDs := make([]int32, 0, len(workers))
	for w := range workers {
		workerIDs = append(workerIDs, w)
	}
	sort.Slice(workerIDs, func(i, j int) bool { return workerIDs[i] < workerIDs[j] })
	for _, w := range workerIDs {
		out = append(out, metaThread(tidWorker0+int(w), fmt.Sprintf("worker-%d", w)))
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ns"})
}

func metaThread(tid int, name string) chromeEvent {
	return chromeEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// WriteSpanChromeTrace renders a span stream (KindSpanBegin/KindSpanEnd
// pairs; other events are ignored) as Chrome trace_event duration slices:
// one process per shard, one row per request — request N renders on tid
// N+1 of its shard's process, shard-level spans (idle sweeps, migration
// pauses, drains) on tid 0 — so a tail request's phase breakdown is
// one visually inspectable row in chrome://tracing or ui.perfetto.dev.
// Timestamps are the emitters' cycle stamps: the serving simulator's
// modelled clock for request rows, the shard's own cycle count for the
// shard track.
func WriteSpanChromeTrace(w io.Writer, events []Event) error {
	p, err := BuildSpanProfile(events, 0)
	if err != nil {
		// A truncated ring yields unmatched pairs; render what did match.
		p, err = BuildSpanProfile(events, 1)
		if err != nil {
			return err
		}
	}
	var out []chromeEvent
	procs := map[int]bool{}
	slice := func(s Span) {
		pid := s.Shard + 1 // shard -1 (single-runtime) renders as pid 0
		if !procs[pid] {
			procs[pid] = true
			out = append(out, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("shard-%d", s.Shard)},
			})
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": "shard"},
			})
		}
		dur := s.End - s.Begin
		args := map[string]any{"selfCycles": s.Self}
		tid := 0
		if s.Request >= 0 {
			tid = s.Request + 1
			args["request"] = s.Request
		}
		out = append(out, chromeEvent{
			Name: s.Kind.String(), Cat: "span", Ph: "X", Ts: s.Begin, Dur: &dur,
			Pid: pid, Tid: tid, Args: args,
		})
	}
	for _, r := range p.Requests {
		for _, s := range r.Spans {
			slice(s)
		}
	}
	for _, s := range p.Track {
		slice(s)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ns"})
}
