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
// run twice, once with Engine.Run (static placement: every task runs on its
// round-robin home) and once submitted, so Close's dispatch can steal. The
// checksums must match; the max/min busy-cycle ratio is the balance claim
// in docs/PERFORMANCE.md.

// ImbalanceResult is the checked-in A/B: the same skewed task list under
// static placement and under work stealing.
type ImbalanceResult struct {
	Shards int    `json:"shards"`
	App    string `json:"app"`
	Tasks  int    `json:"tasks"`
	// NoSteal is the static-placement run: every task runs on its
	// round-robin home shard, so shard 0 runs all the heavy ones.
	NoSteal ThroughputResult `json:"noSteal"`
	// Steal is the same task list submitted, so idle shards may steal.
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

// RunImbalance runs the skewed workload at the given shard count, placed
// statically and stolen, verifies the summed checksums agree, and returns
// the pair. A non-nil registry is attached to the stealing run only.
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
	// 6 tasks per shard, placed in index order so round-robin homes task i
	// on shard i%shards — making every i%shards==0 task heavy piles all
	// the heavy work on shard 0 under static placement.
	n := 6 * shards
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
			Run:  func(e appkit.RegionEnv) uint32 { return app.Region(e, scale) },
		})
	}

	run := func(steal bool, reg *metrics.Registry) (ThroughputResult, error) {
		eng := shard.NewEngine(shard.WithShards(shards), shard.WithMetrics(reg))
		for _, t := range tasks {
			if steal {
				eng.Submit(t)
			} else {
				eng.Run(t)
			}
		}
		return throughputResult(shards, eng.Close())
	}

	noSteal, err := run(false, nil)
	if err != nil {
		return nil, err
	}
	steal, err := run(true, reg)
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
