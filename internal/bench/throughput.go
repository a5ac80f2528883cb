package bench

import (
	"fmt"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/metrics"
	"regions/internal/shard"
)

// ThroughputResult is one whole-app throughput run: every benchmark app
// submitted Repeats times to an engine of Shards shards. Wall-clock numbers
// depend on the host; the simulated makespan (the maximum modelled cycle
// count over shards, since shards are independent machines running
// concurrently) is deterministic and is what scaling claims should cite.
type ThroughputResult struct {
	Shards             int     `json:"shards"`
	Tasks              int     `json:"tasks"`
	WallSeconds        float64 `json:"wallSeconds"`
	TasksPerSec        float64 `json:"tasksPerSec"`
	SimMakespanMcycles float64 `json:"simMakespanMcycles"`
	SimTotalMcycles    float64 `json:"simTotalMcycles"`
	// SimSpeedup is the 1-shard makespan divided by this run's makespan;
	// filled by ThroughputSweepOpts, 0 on standalone runs.
	SimSpeedup float64 `json:"simSpeedup,omitempty"`
	Checksum   uint32  `json:"checksum"`
	// PerShardMcycles is each shard's simulated busy cycles in shard
	// order — the per-run view of regions_shard_busy_cycles_total.
	PerShardMcycles []float64 `json:"perShardMcycles,omitempty"`
	// BusyRatio is max/min over PerShardMcycles: 1.0 is perfect balance.
	BusyRatio float64 `json:"busyRatio,omitempty"`
	// Steals counts tasks that ran away from their home shard.
	Steals uint64 `json:"steals,omitempty"`
}

// ThroughputOpts are the optional knobs of RunThroughputOpts. The zero
// value runs the engine bare.
type ThroughputOpts struct {
	// Metrics, when non-nil, is attached to every shard (see shard.WithMetrics).
	Metrics *metrics.Registry
	// HeapProfileEvery is forwarded to shard.WithHeapProfileEvery: capture a
	// heap profile on each shard every N completed tasks (0 disables).
	HeapProfileEvery int
	// OnEngine, when non-nil, receives the engine right after it starts —
	// before any task is submitted — so a caller can hold it for live
	// inspection (regionbench's /heap endpoint).
	OnEngine func(*shard.Engine)
}

// RunThroughputOpts drives the six benchmark apps through a shard engine
// with the hooks in opts attached: repeats copies of each app, submitted
// app-major so round-robin placement spreads each app's copies across
// shards. Returns an error if any task failed.
func RunThroughputOpts(shards, scaleDiv, repeats int, opts ThroughputOpts) (ThroughputResult, error) {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	if repeats < 1 {
		repeats = 1
	}
	eng := shard.NewEngine(shard.WithShards(shards), shard.WithMetrics(opts.Metrics),
		shard.WithHeapProfileEvery(opts.HeapProfileEvery))
	if opts.OnEngine != nil {
		opts.OnEngine(eng)
	}
	var tasks []shard.Task
	for _, app := range Apps() {
		app := app
		scale := app.DefaultScale / scaleDiv
		if scale < 1 {
			scale = 1
		}
		for rep := 0; rep < repeats; rep++ {
			tasks = append(tasks, shard.Task{
				Name: app.Name,
				Run:  func(e appkit.RegionEnv) uint32 { return app.Region(e, scale) },
			})
		}
	}
	start := time.Now()
	for _, t := range tasks {
		eng.Submit(t)
	}
	agg := eng.Close()
	wall := time.Since(start).Seconds()
	if agg.Failures > 0 {
		for _, s := range agg.PerShard {
			if s.LastError != "" {
				return ThroughputResult{}, fmt.Errorf("bench: %d task failures, e.g. %s", agg.Failures, s.LastError)
			}
		}
		return ThroughputResult{}, fmt.Errorf("bench: %d task failures", agg.Failures)
	}
	res := ThroughputResult{
		Shards:             shards,
		Tasks:              int(agg.Tasks),
		WallSeconds:        wall,
		TasksPerSec:        float64(agg.Tasks) / wall,
		SimMakespanMcycles: float64(agg.MakespanCycles) / 1e6,
		SimTotalMcycles:    float64(agg.TotalCycles) / 1e6,
		Checksum:           agg.Checksum,
		Steals:             agg.Steals,
	}
	res.PerShardMcycles, res.BusyRatio = perShardBalance(agg)
	return res, nil
}

// perShardBalance extracts each shard's simulated busy cycles and the
// max/min balance ratio (1.0 = perfect balance; min is floored at one cycle
// so a shard the scheduler left idle yields a huge ratio, not a division by
// zero).
func perShardBalance(agg shard.Aggregate) ([]float64, float64) {
	if len(agg.PerShard) == 0 {
		return nil, 0
	}
	per := make([]float64, len(agg.PerShard))
	min, max := agg.PerShard[0].SimCycles, agg.PerShard[0].SimCycles
	for i, s := range agg.PerShard {
		per[i] = float64(s.SimCycles) / 1e6
		if s.SimCycles < min {
			min = s.SimCycles
		}
		if s.SimCycles > max {
			max = s.SimCycles
		}
	}
	if min == 0 {
		min = 1
	}
	return per, float64(max) / float64(min)
}

// ThroughputSweepOpts runs the same workload at every shard count, checks
// the aggregate checksum is placement-independent, and fills each result's
// simulated speedup relative to the 1-shard run. A shared opts.Metrics
// registry accumulates across the whole sweep: its final snapshot
// describes everything the sweep did, which is what the benchmark report
// embeds.
func ThroughputSweepOpts(scaleDiv, repeats int, shardCounts []int, opts ThroughputOpts) ([]ThroughputResult, error) {
	var out []ThroughputResult
	for _, n := range shardCounts {
		r, err := RunThroughputOpts(n, scaleDiv, repeats, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	base := out[0]
	for i := range out {
		if out[i].Checksum != base.Checksum {
			return nil, fmt.Errorf("bench: checksum at %d shards = %#x, want %#x — placement changed results",
				out[i].Shards, out[i].Checksum, base.Checksum)
		}
		if out[i].SimMakespanMcycles > 0 {
			out[i].SimSpeedup = base.SimMakespanMcycles / out[i].SimMakespanMcycles
		}
	}
	return out, nil
}
