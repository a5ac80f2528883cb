package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"regions/internal/mem"
	"regions/internal/stats"
	"regions/internal/xmalloc"
)

// RelatedWork compares the paper's regions against the two earlier systems
// its related-work section discusses as partial alternatives:
//
//   - Barrett & Zorn's lifetime-prediction allocator (BZ), which recovers
//     some of regions' batching automatically by profiling allocation
//     sites — "but does not work for all programs";
//   - Doug Lea's allocator as the general-purpose baseline they both
//     improve on.
//
// It runs the four malloc-variant benchmarks (the region-native compilers
// are skipped: they have no per-object frees for BZ to learn from), then
// renders Vo's vmalloc policies and the synthetic trace tables.
func RelatedWork(w io.Writer, s *Suite) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Related work: Lea vs Barrett-Zorn lifetime prediction vs safe regions")
	fmt.Fprintln(tw, "Name\tLea Mcycles / OS KB\tBZ Mcycles / OS KB\tReg Mcycles / OS KB")
	for _, app := range Apps() {
		if app.UsesEmulation {
			continue
		}
		lea := s.MallocRun(app, "Lea", false)
		bz := s.MallocRun(app, "BZ", false)
		reg := s.RegionRun(app, "safe", false, false)
		cell := func(r Result) string {
			c := r.Counters
			return fmt.Sprintf("%.1f / %.0f", float64(c.TotalCycles())/1e6, kb(r.OSBytes))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", app.Name, cell(lea), cell(bz), cell(reg))
	}
	tw.Flush()
	fmt.Fprintln(w)
	VmallocPolicies(w)
	fmt.Fprintln(w)
	traceTables(w, traceOps, traceSeed)
}

// VmallocPolicies compares Vo's three region policies on a phase-structured
// microworkload: waves of small allocations, with per-object frees where
// the policy permits them and whole-region reclamation where it does not —
// the design space the paper's related work situates regions in.
func VmallocPolicies(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Vo's vmalloc policies on a 40k-object churn (related work)")
	fmt.Fprintln(tw, "Policy\tobject free\tcycles\tOS KB")
	for _, policy := range []xmalloc.VmPolicy{xmalloc.VmLast, xmalloc.VmPool, xmalloc.VmBestFit} {
		c := &stats.Counters{}
		sp := mem.NewSpace(c)
		v := xmalloc.NewVmalloc(sp)
		perObject := policy != xmalloc.VmLast
		var wave []mem.Addr
		for round := 0; round < 40; round++ {
			r := v.Open(policy, 24)
			for i := 0; i < 1000; i++ {
				wave = append(wave, v.Alloc(r, 24))
			}
			if perObject {
				for _, p := range wave {
					v.Free(r, p)
				}
			}
			wave = wave[:0]
			v.Close(r)
		}
		freeStr := "no (close only)"
		if perObject {
			freeStr = "yes"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\n",
			policy, freeStr,
			c.Cycles[stats.ModeAlloc]+c.Cycles[stats.ModeFree],
			kb(sp.MappedBytes()))
	}
	tw.Flush()
}
