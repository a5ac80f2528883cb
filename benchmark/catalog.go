package main

// The metric catalog: every metric the benchmark reports, with its unit.
// BENCHMARK.json at the repository root lists the same names and units
// (plus each metric's direction and, end to end, its regression bound);
// TestCatalogMatchesBenchmarkJSON keeps the two in step.

// metricDef is one catalogued metric.
type metricDef struct {
	name, unit string
	// sim marks a metric on the simulated clock: deterministic for a
	// workload and seed, so two runs of one seed must agree exactly.
	sim bool
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"p50_cycles", "cycles", true},
	{"p99_cycles", "cycles", true},
	{"p999_cycles", "cycles", true},
	{"capacity_rate", "1/Mcycle", true},
	{"sim_mcycles", "Mcycles", true},
	{"sim_os_mb", "MB", true},
	{"host_alloc_mb", "MB", false},
	{"setup_s", "s", false},
}

// hostLayers are the layers whose flat share of the traced repetition's CPU
// profile is reported: the applications, each regions/internal package on
// the measured paths, and the Go runtime.
var hostLayers = []string{"apps", "core", "mem", "cachesim", "shard", "serve", "metrics", "trace", "goruntime"}

// perLayer are the metrics of single layers, from the traced repetition.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.alloc_cycles", "cycles", true},
		{"core.free_cycles", "cycles", true},
		{"core.rc_cycles", "cycles", true},
		{"core.scan_cycles", "cycles", true},
		{"core.cleanup_cycles", "cycles", true},
		{"core.mm_overhead_pct", "%", true},
		{"core.allocs", "count", true},
		{"core.alloc_bytes", "bytes", true},
		{"core.regions_created", "count", true},
		{"core.delete_fails", "count", true},
		{"core.barriers_region", "count", true},
		{"core.barriers_sameregion", "count", true},
		{"core.barriers_global", "count", true},
		{"core.frames_scanned", "count", true},
		{"core.cleanup_calls", "count", true},
	}
	for _, c := range coreCalls {
		defs = append(defs,
			metricDef{"core." + c + ".calls", "count", true},
			metricDef{"core." + c + ".host_ns", "ns", false},
			metricDef{"core." + c + ".cycles", "cycles", true})
	}
	defs = append(defs, []metricDef{
		{"core.lrcache_hit_ratio", "ratio", true},
		{"core.pages_acquired", "pages", true},
		{"core.pages_released", "pages", true},
		{"core.str_reuse_ratio", "ratio", true},
		{"core.swept_pages", "pages", true},
		{"core.sweep_slices", "count", true},
		{"apps.cycles", "cycles", true},
		{"apps.self_host_ns", "ns", false},
		{"mem.accesses", "count", true},
		{"mem.map_calls", "count", true},
		{"mem.pages_mapped", "pages", true},
		{"cachesim.read_stall_cycles", "cycles", true},
		{"cachesim.write_stall_cycles", "cycles", true},
		{"cachesim.l1_miss_ratio", "ratio", true},
		{"cachesim.l2_miss_ratio", "ratio", true},
		{"shard.busy_ratio", "ratio", true},
		{"shard.utilization_pct", "%", true},
		{"serve.queue_cycles", "cycles", true},
		{"serve.parse_cycles", "cycles", true},
		{"serve.work_cycles", "cycles", true},
		{"serve.delete_cycles", "cycles", true},
		{"serve.sweep_cycles", "cycles", true},
		{"serve.queue_p99_cycles", "cycles", true},
		{"serve.queued_ratio", "ratio", true},
		{"serve.max_queue_depth", "count", true},
		{"serve.hist_p99_error_pct", "%", true},
		{"trace.overhead_pct", "%", false},
		{"trace.dropped_events", "count", true},
		{"host_s", "s", false},
		{"sim_mcycles_per_s", "Mcycles/s", false},
	}...)
	for _, l := range hostLayers {
		defs = append(defs, metricDef{l + ".host_pct", "%", false})
	}
	return defs
}()

// paperOnly are the per-layer metrics only the paper-apps workload can
// measure: the serving mixes run inside serve.Run, which exposes neither
// their stats.Counters mode split nor a cache model nor an appkit
// environment to wrap. serveOnly are the metrics of the serving layers.
// Each workload reports the other's as 0.
var (
	paperOnly = func() []string {
		names := []string{"core.alloc_cycles", "core.free_cycles", "core.rc_cycles",
			"core.scan_cycles", "core.cleanup_cycles", "core.mm_overhead_pct", "core.cleanup_calls",
			"apps.cycles", "apps.self_host_ns", "mem.accesses",
			"cachesim.read_stall_cycles", "cachesim.write_stall_cycles",
			"cachesim.l1_miss_ratio", "cachesim.l2_miss_ratio"}
		for _, c := range coreCalls {
			names = append(names, "core."+c+".calls", "core."+c+".host_ns", "core."+c+".cycles")
		}
		return names
	}()
	serveOnly = []string{"shard.busy_ratio", "shard.utilization_pct",
		"serve.queue_cycles", "serve.parse_cycles", "serve.work_cycles", "serve.delete_cycles",
		"serve.sweep_cycles", "serve.queue_p99_cycles", "serve.queued_ratio",
		"serve.max_queue_depth", "serve.hist_p99_error_pct"}
)

var (
	endToEndUnits = units(endToEnd)
	perLayerUnits = units(perLayer)
)

func units(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

// zero reports each named metric as 0 on r.
func zero(r *result, names []string) {
	for _, n := range names {
		r.layer(n, 0)
	}
}
