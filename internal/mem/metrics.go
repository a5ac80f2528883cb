package mem

import "regions/internal/metrics"

// OSCounts is the simulated OS's tally of MapPages traffic. Like
// stats.Counters it is plain data the space keeps whether or not a registry
// is attached; it charges no simulated cycle. Refusals are broken out by
// cause so an operator can tell an injected fault plan from genuine
// address-space or budget exhaustion.
type OSCounts struct {
	// MapCalls counts MapPages calls, refused or not (what a test aligns
	// FaultPlan.FailNth against); MapFails counts the refused ones.
	MapCalls, MapFails uint64
	// MappedBytes is the memory handed out; like sbrk, it never shrinks.
	MappedBytes uint64
	// FailsByCause splits MapFails by cause, indexed like causes.
	FailsByCause [len(causes)]uint64
}

// causes lists the Cause* refusal reasons with their Prometheus label
// values.
var causes = [...]struct{ cause, slug string }{
	{CauseAddressSpace, "address-space"},
	{CausePageLimit, "page-limit"},
	{CauseByteBudget, "byte-budget"},
	{CauseFailNth, "fail-nth"},
	{CauseFailProb, "fail-prob"},
}

// causeIndex returns cause's position in causes.
func causeIndex(cause string) int {
	for i, c := range causes {
		if c.cause == cause {
			return i
		}
	}
	panic("mem: unknown refusal cause " + cause)
}

// Emit reports the counts as the regions_mem_* series. A cause appears once
// it has refused a call.
func (o *OSCounts) Emit(s *metrics.Sink) {
	s.Counter("regions_mem_map_calls_total", o.MapCalls)
	s.Counter("regions_mem_map_failures_total", o.MapFails)
	s.Counter("regions_mem_pages_mapped_total", o.MappedBytes/PageSize)
	s.Gauge("regions_mem_mapped_bytes", int64(o.MappedBytes))
	for i, n := range o.FailsByCause {
		if n > 0 {
			s.Counter(`regions_mem_map_failures_by_cause_total{cause="`+causes[i].slug+`"}`, n)
		}
	}
}

// OSCounts returns a copy of the space's counts.
func (s *Space) OSCounts() OSCounts { return *s.os }

// SetMetrics registers the space's counts with reg as a pulled source,
// replacing any earlier registration; nil detaches. The source reads the
// counts directly, so snapshot the registry only from the goroutine that
// owns the space. It holds the counts, not the space, so the registry never
// keeps the simulated memory alive.
func (s *Space) SetMetrics(reg *metrics.Registry) {
	if s.unmeter != nil {
		s.unmeter()
		s.unmeter = nil
	}
	if reg != nil {
		s.unmeter = reg.AddSource(s.os.Emit)
	}
}
