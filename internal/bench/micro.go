package bench

import (
	"time"

	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/stats"
)

// MicroUnit* are the units a micro benchmark's figure is measured in:
// simulated cycles per op for paths the simulator charges, wall-clock
// nanoseconds per op for host-side-only paths (the regionof lookups).
const (
	MicroUnitSimCycles = "sim cycles/op"
	MicroUnitNs        = "ns/op"
)

// MicroResult is one measured micro-operation: wall-clock nanoseconds per
// operation, plus the modelled simulated cycles per operation for paths the
// simulator charges (lookups run host-side only, so those report 0). Unit
// names the unit the benchmark's figure is measured in.
type MicroResult struct {
	Name           string  `json:"name"`
	Ops            int     `json:"ops"`
	NsPerOp        float64 `json:"nsPerOp"`
	SimCyclesPerOp float64 `json:"simCyclesPerOp,omitempty"`
	Unit           string  `json:"unit,omitempty"`
	// ReuseRatio is the pooled string allocator's hit fraction over the
	// run, reported by the strallocs micros (0 elsewhere).
	ReuseRatio float64 `json:"reuseRatio,omitempty"`
}

// RunMicro measures the runtime's primitive operations — allocation, the
// write barrier, region churn, and the page→region lookup. The lookup is
// measured twice over identical pointer streams: once through the runtime's
// dense page-index array and once through a hash-map replica of the same
// page→region relation, the structure this repository replaced.
func RunMicro() []MicroResult {
	var out []MicroResult

	newRuntime := func() (*core.Runtime, *stats.Counters) {
		c := &stats.Counters{}
		return core.NewRuntimeOpts(mem.NewSpace(c), core.Options{Safe: true}), c
	}

	// ralloc/16B: the allocation fast path, with the region rotated
	// periodically so it never grows without bound.
	{
		rt, c := newRuntime()
		cln := rt.SizeCleanup(16)
		r := rt.NewRegion()
		const ops = 200000
		before := c.TotalCycles()
		start := time.Now()
		for i := 0; i < ops; i++ {
			rt.Ralloc(r, 16, cln)
			if i%4096 == 4095 {
				rt.DeleteRegion(r)
				r = rt.NewRegion()
			}
		}
		el := time.Since(start)
		out = append(out, MicroResult{
			Name:           "ralloc/16B",
			Ops:            ops,
			NsPerOp:        float64(el.Nanoseconds()) / ops,
			SimCyclesPerOp: float64(c.TotalCycles()-before) / ops,
			Unit:           MicroUnitSimCycles,
		})
	}

	// barrier/storeptr: overwriting a region-pointer slot, the steady-state
	// write barrier (decrement the old target, increment the new). Measured
	// twice: with the last-region translation cache (the default — steady
	// state takes the cached sameregion fast path) and with
	// Options.NoRegionCache, the flat Figure 5 model every barrier paid
	// before the cache existed.
	for _, v := range []struct {
		name    string
		noCache bool
	}{
		{"barrier/storeptr", false},
		{"barrier/storeptr-nocache", true},
	} {
		c := &stats.Counters{}
		rt := core.NewRuntimeOpts(mem.NewSpace(c), core.Options{Safe: true, NoRegionCache: v.noCache})
		cln := rt.SizeCleanup(16)
		r := rt.NewRegion()
		p := rt.Ralloc(r, 16, cln)
		q := rt.Ralloc(r, 16, cln)
		const ops = 500000
		before := c.TotalCycles()
		start := time.Now()
		for i := 0; i < ops; i++ {
			rt.StorePtr(p, q)
		}
		el := time.Since(start)
		rt.StorePtr(p, 0)
		out = append(out, MicroResult{
			Name:           v.name,
			Ops:            ops,
			NsPerOp:        float64(el.Nanoseconds()) / ops,
			SimCyclesPerOp: float64(c.TotalCycles()-before) / ops,
			Unit:           MicroUnitSimCycles,
		})
	}

	// region/new-delete: region churn; after the first iteration the page
	// comes from the runtime's free-page list, not the simulated OS.
	{
		rt, c := newRuntime()
		const ops = 50000
		before := c.TotalCycles()
		start := time.Now()
		for i := 0; i < ops; i++ {
			r := rt.NewRegion()
			if !rt.DeleteRegion(r) {
				panic("bench: new-delete region not deletable")
			}
		}
		el := time.Since(start)
		out = append(out, MicroResult{
			Name:           "region/new-delete",
			Ops:            ops,
			NsPerOp:        float64(el.Nanoseconds()) / ops,
			SimCyclesPerOp: float64(c.TotalCycles()-before) / ops,
			Unit:           MicroUnitSimCycles,
		})
	}

	// strallocs: the pooled string allocator's steady-state recycle — a ring
	// of live string buffers whose oldest member is freed and reallocated at
	// the same size each op, the line-buffer churn of a scanner. Measured
	// twice: pooled (every alloc after warmup is a first-probe pool hit) and
	// with Options.NoStrPool (every alloc bumps, so the region's string side
	// grows without bound and keeps round-tripping pages through the
	// simulated OS). The gap between the two is the pool's claim: sub-page
	// reuse at ~5 cycles per alloc versus bump's 7-plus-page-acquisition.
	for _, v := range []struct {
		name   string
		noPool bool
	}{
		{"strallocs/op", false},
		{"strallocs/nopool", true},
	} {
		c := &stats.Counters{}
		rt := core.NewRuntimeOpts(mem.NewSpace(c), core.Options{Safe: true, NoStrPool: v.noPool})
		r := rt.NewRegion()
		// Sizes straddle the power-of-two classes: exact (64, 512), one
		// under (63), and non-power-of-two (24, 200).
		sizes := [...]int{24, 63, 64, 200, 512}
		const ring = 64
		type blk struct {
			p    core.Ptr
			size int
		}
		var live [ring]blk
		for i := range live {
			sz := sizes[i%len(sizes)]
			live[i] = blk{rt.RstrAlloc(r, sz), sz}
		}
		const ops = 200000
		before := c.TotalCycles()
		start := time.Now()
		for i := 0; i < ops; i++ {
			b := &live[i%ring]
			rt.RstrFree(r, b.p, b.size)
			b.p = rt.RstrAlloc(r, b.size)
		}
		el := time.Since(start)
		out = append(out, MicroResult{
			Name:           v.name,
			Ops:            ops,
			NsPerOp:        float64(el.Nanoseconds()) / ops,
			SimCyclesPerOp: float64(c.TotalCycles()-before) / ops,
			Unit:           MicroUnitSimCycles,
			ReuseRatio:     rt.StrPoolStats().ReuseRatio(),
		})
	}

	// regionof: the page→region lookup over a pointer stream spread across
	// many regions, dense array versus hash-map baseline. Both loops are
	// identical apart from the lookup structure; neither is charged
	// simulated cycles, so only wall time is comparable.
	{
		rt, _ := newRuntime()
		cln := rt.SizeCleanup(64)
		const regions, perRegion = 64, 32
		var ptrs []core.Ptr
		for i := 0; i < regions; i++ {
			r := rt.NewRegion()
			for j := 0; j < perRegion; j++ {
				ptrs = append(ptrs, rt.Ralloc(r, 64, cln))
			}
		}
		replica := make(map[uint32]*core.Region, len(ptrs))
		for _, p := range ptrs {
			replica[uint32(p>>mem.PageShift)] = rt.RegionOf(p)
		}

		const ops = 2000000
		var sink *core.Region
		start := time.Now()
		for i := 0; i < ops; i++ {
			sink = rt.RegionOf(ptrs[i%len(ptrs)])
		}
		dense := time.Since(start)
		start = time.Now()
		for i := 0; i < ops; i++ {
			sink = replica[uint32(ptrs[i%len(ptrs)]>>mem.PageShift)]
		}
		viaMap := time.Since(start)
		_ = sink
		out = append(out,
			MicroResult{Name: "regionof/dense", Ops: ops, NsPerOp: float64(dense.Nanoseconds()) / ops, Unit: MicroUnitNs},
			MicroResult{Name: "regionof/map", Ops: ops, NsPerOp: float64(viaMap.Nanoseconds()) / ops, Unit: MicroUnitNs},
		)
	}

	return out
}
