package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/apps/cfrac"
	"regions/internal/apps/grobner"
	"regions/internal/apps/minicc"
	"regions/internal/apps/moss"
	"regions/internal/apps/mudlle"
	"regions/internal/apps/tile"
	"regions/internal/cachesim"
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
)

// maxPadPages bounds the seeded heap offset: 16 pages cover every alignment
// of a page against the 16 KB direct-mapped first-level cache.
const maxPadPages = 16

// paperApps is the paper's evaluation configuration (Figures 9-11): the six
// applications at paper scale, each in its own safe region environment with
// the UltraSparc-I cache model attached and metered into one registry, run
// back to back on one goroutine.
type paperApps struct {
	apps  []appkit.App
	scale []int
	// pad is the number of pages mapped ahead of each application's heap.
	// The applications build their inputs from their scale alone, so this
	// is what the seed draws: a memory layout, which moves every object
	// against the direct-mapped caches and leaves every checksum unchanged.
	pad    []int
	pinned bool // full size: check the pinned checksums
}

func newPaperApps(seed int64, scaleDiv int) *paperApps {
	rng := rand.New(rand.NewSource(seed))
	p := &paperApps{
		apps:   []appkit.App{cfrac.App(), grobner.App(), mudlle.App(), minicc.App(), tile.App(), moss.App()},
		pinned: scaleDiv == 1,
	}
	for _, a := range p.apps {
		p.scale = append(p.scale, max(1, a.DefaultScale/scaleDiv))
		p.pad = append(p.pad, rng.Intn(maxPadPages))
	}
	return p
}

// env builds application i's environment.
func (p *paperApps) env(i int, reg *metrics.Registry) (appkit.RegionEnv, error) {
	e := appkit.NewRegionEnv("safe", appkit.Config{Cache: true, Metrics: reg})
	if n := p.pad[i]; n > 0 && e.Space().MapPages(n) == 0 {
		return nil, fmt.Errorf("%s: the simulated OS refused %d pad pages", p.apps[i].Name, n)
	}
	return e, nil
}

func (p *paperApps) setup() error {
	reg := metrics.NewRegistry()
	for i := range p.apps {
		if _, err := p.env(i, reg); err != nil {
			return err
		}
	}
	return nil
}

// appRun is one application's outcome in one repetition.
type appRun struct {
	name    string
	sum     uint32
	c       stats.Counters
	osBytes uint64 // mapped by the program; the pad is excluded
	cache   *cachesim.Cache
	host    time.Duration // the run's wall time, its environment already built
}

// runAll runs the six applications in order, metered into reg. wrap, when
// non-nil, wraps each environment before its application sees it. Each
// application starts on a collected Go heap, as it would in a process of
// its own, and is timed on its own.
func (p *paperApps) runAll(reg *metrics.Registry, wrap func(appkit.RegionEnv) appkit.RegionEnv) ([]appRun, error) {
	runs := make([]appRun, len(p.apps))
	for i, a := range p.apps {
		e, err := p.env(i, reg)
		if err != nil {
			return nil, err
		}
		seen := e
		if wrap != nil {
			seen = wrap(e)
		}
		runtime.GC()
		t0 := time.Now()
		sum, err := runApp(a, seen, p.scale[i])
		host := time.Since(t0)
		if err != nil {
			return nil, err
		}
		runs[i] = appRun{
			name:    a.Name,
			sum:     sum,
			c:       *e.Counters(),
			osBytes: e.Space().MappedBytes() - uint64(p.pad[i])*mem.PageSize,
			cache:   e.Space().Cache(),
			host:    host,
		}
	}
	return runs, nil
}

// runApp runs one application, reporting a panic (a runtime fault) as an
// error.
func runApp(a appkit.App, e appkit.RegionEnv, scale int) (sum uint32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", a.Name, r)
		}
	}()
	sum = a.Region(e, scale)
	e.Finalize()
	return sum, nil
}

func (p *paperApps) out(runs []appRun) repOut {
	var o repOut
	var sim strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&sim, "%s=%08x/%dcycles/%dB ", r.name, r.sum, r.c.TotalCycles(), r.osBytes)
		o.osBytes += r.osBytes
		o.parts = append(o.parts, r.host.Seconds())
	}
	o.sim = strings.TrimSpace(sim.String())
	o.attempted = uint64(len(runs))
	return o
}

func (p *paperApps) rep() (repOut, error) {
	runs, err := p.runAll(metrics.NewRegistry(), nil)
	if err != nil {
		return repOut{}, err
	}
	return p.out(runs), nil
}

// capacity is the paper-apps throughput: application runs completed per
// simulated Mcycle, the closed-loop counterpart of a serving mix's
// capacity.
func (p *paperApps) capacity(tr tracedOut) (float64, error) {
	return float64(len(p.apps)) / (float64(tr.simCycles) / 1e6), nil
}

// traced runs the six applications through call-ledger wrappers, then
// once more unwrapped under the CPU profiler, so the ledger's per-call
// timers do not distort the layer shares. The latency metrics are the
// distribution of simulated cycles per region-runtime call: the
// applications are the runtime's clients, and each call is one request
// to it.
func (p *paperApps) traced(res *result, want repOut) (tracedOut, error) {
	reg := metrics.NewRegistry()
	led := &ledger{}
	runs, err := p.runAll(reg, led.wrap)
	if err != nil {
		return tracedOut{}, err
	}
	var host time.Duration
	for _, r := range runs {
		host += r.host
	}
	var shares hostShares
	if err := shares.profile(func() error {
		return program(func() error { _, err := p.rep(); return err })
	}); err != nil {
		return tracedOut{}, err
	}
	if got := p.out(runs); got.sim != want.sim {
		res.fail("the traced repetition changed the simulated outputs: %s, untraced %s", got.sim, want.sim)
	}

	var modes [stats.NumModes]uint64
	var total, stalls, cleanups, allocs, regions, reads, writes, l1, l2, rStall, wStall uint64
	for _, r := range runs {
		if w, ok := pinned[r.name]; p.pinned && ok && r.sum != w {
			res.fail("%s checksum %08x, pinned %08x", r.name, r.sum, w)
		}
		for m, v := range r.c.Cycles {
			modes[m] += v
		}
		total += r.c.TotalCycles()
		stalls += r.c.ReadStalls + r.c.WriteStalls
		cleanups += r.c.CleanupCalls
		allocs += r.c.Allocs
		regions += r.c.RegionsCreated
		reads += r.cache.Reads
		writes += r.cache.Writes
		l1 += r.cache.L1Misses
		l2 += r.cache.L2Misses
		rStall += r.cache.ReadStalls
		wStall += r.cache.WriteStalls
	}

	// The mode ledger (Figure 9's split): the accounting modes and the
	// stalls add up to the makespan.
	var modeSum uint64
	for _, v := range modes {
		modeSum += v
	}
	if modeSum+stalls != total {
		res.fail("mode ledger: modes %d + stalls %d cycles != makespan %d", modeSum, stalls, total)
	}
	// The call ledger: every cycle was charged inside a region-runtime call
	// or is the application's own, so no memory-management cycle escapes
	// the calls.
	var inCalls uint64
	for _, c := range led.cycles {
		inCalls += c
	}
	appOut := modes[stats.ModeApp] - led.appIn
	stallOut := stalls - led.stallIn
	if inCalls+appOut+stallOut != total {
		res.fail("call ledger: calls %d + application %d + its stalls %d cycles != makespan %d",
			inCalls, appOut, stallOut, total)
	}
	// The metrics registry and the counters count the same events.
	snap := reg.Snapshot()
	if v, _ := snap.Counter("regions_core_allocs_total"); v != allocs {
		res.fail("registry counts %d allocations, the counters %d", v, allocs)
	}
	if v, _ := snap.Counter("regions_core_regions_created_total"); v != regions {
		res.fail("registry counts %d regions created, the counters %d", v, regions)
	}

	latencyMetrics(res, led.latency.quantile(0.50), led.latency.quantile(0.99),
		led.latency.quantile(0.999), led.latency.max())

	res.layer("core.alloc_cycles", float64(modes[stats.ModeAlloc]))
	res.layer("core.free_cycles", float64(modes[stats.ModeFree]))
	res.layer("core.rc_cycles", float64(modes[stats.ModeRC]))
	res.layer("core.scan_cycles", float64(modes[stats.ModeScan]))
	res.layer("core.cleanup_cycles", float64(modes[stats.ModeCleanup]))
	res.layer("core.mm_overhead_pct", 100*ratio(float64(modeSum-modes[stats.ModeApp]), float64(total)))
	res.layer("core.cleanup_calls", float64(cleanups))
	var callNS int64
	for k, name := range coreCalls {
		res.layer("core."+name+".calls", float64(led.calls[k]))
		res.layer("core."+name+".host_ns", float64(led.hostNS[k]))
		res.layer("core."+name+".cycles", float64(led.cycles[k]))
		callNS += led.hostNS[k]
	}
	res.layer("apps.cycles", float64(appOut))
	res.layer("apps.self_host_ns", float64(host.Nanoseconds()-callNS))
	res.layer("mem.accesses", float64(reads+writes))
	res.layer("cachesim.read_stall_cycles", float64(rStall))
	res.layer("cachesim.write_stall_cycles", float64(wStall))
	res.layer("cachesim.l1_miss_ratio", ratio(float64(l1), float64(reads+writes)))
	res.layer("cachesim.l2_miss_ratio", ratio(float64(l2), float64(l1)))
	res.layer("trace.dropped_events", 0) // no event tracer is attached
	registryLayers(res, snap)
	hostLayerMetrics(res, &shares)
	zero(res, serveOnly)
	return tracedOut{simCycles: total, host: host.Seconds()}, nil
}

// latencyMetrics sets the exact latency quantiles and checks their order:
// a quantile above the slowest request is a bug, not a rounding detail.
func latencyMetrics(res *result, p50, p99, p999, max uint64) {
	if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
		res.fail("latency quantiles out of order: p50 %d, p99 %d, p999 %d, max %d", p50, p99, p999, max)
	}
	res.e2e("p50_cycles", float64(p50))
	res.e2e("p99_cycles", float64(p99))
	res.e2e("p999_cycles", float64(p999))
}
