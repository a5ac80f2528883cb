package bench

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/metrics"
	"regions/internal/shard"
)

// This file is the work-stealing scheduler's A/B evidence. The standard
// throughput workload is balanced by construction — app-major round-robin
// submission hands every shard one copy of each app — so it cannot show
// what stealing buys. The imbalance workload is deliberately skewed
// instead: heavy and light copies of one app interleaved so that static
// placement piles every heavy task on shard 0, and the same task list is
// run twice, once pinned (static placement: every task runs on its
// round-robin home) and once unpinned, so Close's dispatch can steal. The
// checksums must match; the max/min busy-cycle ratio is the balance claim
// in docs/PERFORMANCE.md.

// ImbalanceResult is the checked-in A/B: the same skewed task list under
// static placement and under work stealing.
type ImbalanceResult struct {
	Shards int    `json:"shards"`
	App    string `json:"app"`
	Tasks  int    `json:"tasks"`
	// NoSteal is the static-placement run: every task is pinned to its
	// round-robin home shard, so shard 0 runs all the heavy ones.
	NoSteal ThroughputResult `json:"noSteal"`
	// Steal is the same task list unpinned, so idle shards may steal.
	Steal ThroughputResult `json:"steal"`
}

// imbalanceApp picks the app the skewed workload runs: cfrac, the paper's
// lead benchmark, falling back to the first app if the list ever changes.
func imbalanceApp() appkit.App {
	apps := Apps()
	for _, a := range apps {
		if a.Name == "cfrac" {
			return a
		}
	}
	return apps[0]
}

// RunImbalance runs the skewed workload at the given shard count, pinned
// and unpinned, verifies the summed checksums agree, and returns the pair.
// A non-nil registry is attached to the unpinned run only.
func RunImbalance(shards, scaleDiv int, reg *metrics.Registry) (*ImbalanceResult, error) {
	if shards < 1 {
		shards = 1
	}
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	app := imbalanceApp()
	heavy := app.DefaultScale / scaleDiv
	if heavy < 1 {
		heavy = 1
	}
	light := heavy / 16
	if light < 1 {
		light = 1
	}
	// 6 tasks per shard, submitted in index order so round-robin homes
	// task i on shard i%shards — making every i%shards==0 task heavy
	// piles all the heavy work on shard 0 under static placement.
	n := 6 * shards
	makeTasks := func(pin bool) []shard.Task {
		tasks := make([]shard.Task, 0, n)
		for i := 0; i < n; i++ {
			scale := light
			name := app.Name + "-light"
			if i%shards == 0 {
				scale = heavy
				name = app.Name + "-heavy"
			}
			tasks = append(tasks, shard.Task{
				Name: name,
				Pin:  pin,
				Run:  func(e appkit.RegionEnv) uint32 { return app.Region(e, scale) },
			})
		}
		return tasks
	}

	run := func(pin bool, reg *metrics.Registry) (ThroughputResult, error) {
		eng := shard.NewEngine(shard.WithShards(shards), shard.WithMetrics(reg))
		for _, t := range makeTasks(pin) {
			eng.Submit(t)
		}
		agg := eng.Close()
		if agg.Failures > 0 {
			return ThroughputResult{}, fmt.Errorf("bench: imbalance run had %d failures", agg.Failures)
		}
		res := ThroughputResult{
			Shards:             shards,
			Tasks:              int(agg.Tasks),
			SimMakespanMcycles: float64(agg.MakespanCycles) / 1e6,
			SimTotalMcycles:    float64(agg.TotalCycles) / 1e6,
			Checksum:           agg.Checksum,
			Steals:             agg.Steals,
		}
		res.PerShardMcycles, res.BusyRatio = perShardBalance(agg)
		return res, nil
	}

	noSteal, err := run(true, nil)
	if err != nil {
		return nil, err
	}
	steal, err := run(false, reg)
	if err != nil {
		return nil, err
	}
	if steal.Checksum != noSteal.Checksum {
		return nil, fmt.Errorf("bench: stealing changed the checksum: %#x vs %#x",
			steal.Checksum, noSteal.Checksum)
	}
	return &ImbalanceResult{
		Shards:  shards,
		App:     app.Name,
		Tasks:   n,
		NoSteal: noSteal,
		Steal:   steal,
	}, nil
}
