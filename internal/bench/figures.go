package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"regions/internal/stats"
)

// mallocColumns are the paper's allocator columns, in its order; "Reg" (the
// safe region library) is appended by each figure.
var mallocColumns = []string{"Sun", "BSD", "Lea", "GC"}

// Figure8 regenerates "Figure 8: Memory overhead": per application and
// allocator, the memory requested from the OS next to the memory the
// program itself requested. For mudlle and lcc the malloc columns carry the
// emulation library's link-word overhead; the requested line shows both
// values, as the paper's second bar does.
func Figure8(w io.Writer, s *Suite) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 8: Memory overhead (kbytes requested from the OS)")
	fmt.Fprintln(tw, "Name\tSun\tBSD\tLea\tGC\tReg\trequested")
	for _, app := range Apps() {
		fmt.Fprintf(tw, "%s", app.Name)
		var emuNote string
		for _, kind := range mallocColumns {
			r := s.MallocRun(app, kind, false)
			fmt.Fprintf(tw, "\t%.0f", kb(r.OSBytes))
			if r.EmuLink > 0 {
				emuNote = " (emulation overhead included in malloc columns)"
			}
		}
		reg := s.RegionRun(app, "safe", false, false)
		fmt.Fprintf(tw, "\t%.0f\t%.0f%s\n",
			kb(reg.OSBytes), kb(uint64(reg.Counters.MaxLiveBytes)), emuNote)
	}
	tw.Flush()
}

// Figure9 regenerates "Figure 9: Execution time and memory management
// overhead": per application and allocator, modelled cycles split into the
// base program and memory management. The unsafe-region bar and moss's
// original ("slow") region organization are included as in the paper.
func Figure9(w io.Writer, s *Suite) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 9: Execution time (Mcycles, base+memory)")
	fmt.Fprintln(tw, "Name\tSun\tBSD\tLea\tGC\tReg\tunsafe\tslow")
	cell := func(r Result) string {
		c := r.Counters
		return fmt.Sprintf("%.1f+%.1f", float64(c.BaseCycles())/1e6, float64(c.MemCycles())/1e6)
	}
	for _, app := range Apps() {
		fmt.Fprintf(tw, "%s", app.Name)
		for _, kind := range mallocColumns {
			fmt.Fprintf(tw, "\t%s", cell(s.MallocRun(app, kind, false)))
		}
		fmt.Fprintf(tw, "\t%s", cell(s.RegionRun(app, "safe", false, false)))
		fmt.Fprintf(tw, "\t%s", cell(s.RegionRun(app, "unsafe", false, false)))
		if app.SlowRegion != nil {
			fmt.Fprintf(tw, "\t%s", cell(s.RegionRun(app, "safe", true, false)))
		} else {
			fmt.Fprintf(tw, "\t-")
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Figure10 regenerates "Figure 10: Processor cycles lost to stalls": the
// same runs with the UltraSparc-I cache model attached, reporting read and
// write stall cycles.
func Figure10(w io.Writer, s *Suite) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 10: Processor cycles lost to stalls (Mcycles, read+write)")
	fmt.Fprintln(tw, "Name\tSun\tBSD\tLea\tGC\tReg\tslow")
	cell := func(r Result) string {
		c := r.Counters
		return fmt.Sprintf("%.2f+%.2f", float64(c.ReadStalls)/1e6, float64(c.WriteStalls)/1e6)
	}
	for _, app := range Apps() {
		fmt.Fprintf(tw, "%s", app.Name)
		for _, kind := range mallocColumns {
			fmt.Fprintf(tw, "\t%s", cell(s.MallocRun(app, kind, true)))
		}
		fmt.Fprintf(tw, "\t%s", cell(s.RegionRun(app, "safe", false, true)))
		if app.SlowRegion != nil {
			fmt.Fprintf(tw, "\t%s", cell(s.RegionRun(app, "safe", true, true)))
		} else {
			fmt.Fprintf(tw, "\t-")
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Figure11 regenerates "Figure 11: Region costs": the breakdown of the cost
// of safety into cleanup functions, stack scanning, and reference counting,
// plus the overall safety overhead against the unsafe library.
func Figure11(w io.Writer, s *Suite) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Figure 11: Cost of safety (Mcycles)")
	fmt.Fprintln(tw, "Name\tcleanup\tstack scan\trefcount\tsafety overhead")
	for _, app := range Apps() {
		safe := s.RegionRun(app, "safe", false, false).Counters
		unsafe := s.RegionRun(app, "unsafe", false, false).Counters
		overhead := 100 * (float64(safe.TotalCycles())/float64(unsafe.TotalCycles()) - 1)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.1f%%\n",
			app.Name,
			float64(safe.Cycles[stats.ModeCleanup])/1e6,
			float64(safe.Cycles[stats.ModeScan])/1e6,
			float64(safe.Cycles[stats.ModeRC])/1e6,
			overhead)
	}
	tw.Flush()
}
