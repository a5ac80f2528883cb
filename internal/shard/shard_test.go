package shard

import (
	"strings"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/apps/tile"
)

// simpleTask allocates a few objects in a fresh region, folds them into a
// checksum, and deletes the region — a minimal request-shaped workload.
func simpleTask(seed uint32) Task {
	return Task{
		Name: "simple",
		Run: func(e appkit.RegionEnv) uint32 {
			sp := e.Space()
			r := e.NewRegion()
			cln := e.SizeCleanup(16)
			sum := seed
			for i := 0; i < 32; i++ {
				p := e.Ralloc(r, 16, cln)
				sp.Store(p, seed+uint32(i))
				sum = sum*31 + sp.Load(p)
			}
			if !e.DeleteRegion(r) {
				panic("simple task: region not deletable")
			}
			return sum
		},
	}
}

// TestEngineRunsTasksAcrossShards: round-robin homes spread equal tasks
// over every shard.
func TestEngineRunsTasksAcrossShards(t *testing.T) {
	eng := NewEngine(WithShards(4))
	const tasks = 64
	for i := 0; i < tasks; i++ {
		eng.Submit(simpleTask(uint32(i)))
	}
	agg := eng.Close()
	if agg.Tasks != tasks {
		t.Fatalf("ran %d tasks, want %d", agg.Tasks, tasks)
	}
	if agg.Failures != 0 {
		t.Fatalf("%d failures, first: %v", agg.Failures, agg.PerShard)
	}
	busy := 0
	for _, s := range agg.PerShard {
		if s.Tasks > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("round-robin left shards idle: %d/4 busy", busy)
	}
	for i, w := range eng.workers() {
		if err := w.env.Runtime().Verify(); err != nil {
			t.Fatalf("shard %d invariants violated after run: %v", i, err)
		}
	}
}

func TestChecksumIsPlacementIndependent(t *testing.T) {
	run := func(shards int) uint32 {
		eng := NewEngine(WithShards(shards))
		for i := 0; i < 24; i++ {
			eng.Submit(simpleTask(uint32(i * 7)))
		}
		agg := eng.Close()
		if agg.Failures != 0 {
			t.Fatalf("failures at %d shards", shards)
		}
		return agg.Checksum
	}
	want := run(1)
	for _, n := range []int{2, 4, 8} {
		if got := run(n); got != want {
			t.Fatalf("checksum at %d shards = %#x, want %#x", n, got, want)
		}
	}
}

func TestAffinityTasksShareAShard(t *testing.T) {
	eng := NewEngine(WithShards(4))
	// The first task of the pipeline creates a region and leaves it live;
	// the second, run with the same home (a held task's home is only a
	// preference), allocates in it and deletes it. This only works if both
	// run, in order, on one runtime.
	var shared appkit.Region
	eng.Run(Task{
		Name: "produce",
		Home: 3,
		Run: func(e appkit.RegionEnv) uint32 {
			shared = e.NewRegion()
			e.RstrAlloc(shared, 64)
			return 1
		},
	})
	eng.Run(Task{
		Name: "consume",
		Home: 3,
		Run: func(e appkit.RegionEnv) uint32 {
			e.RstrAlloc(shared, 64)
			if !e.DeleteRegion(shared) {
				panic("consume: region not deletable")
			}
			return 2
		},
	})
	agg := eng.Close()
	if agg.Failures != 0 {
		for _, s := range agg.PerShard {
			if s.LastError != "" {
				t.Log(s.LastError)
			}
		}
		t.Fatal("homed pipeline failed")
	}
	if agg.Checksum != 3 {
		t.Fatalf("checksum %#x, want 3", agg.Checksum)
	}
}

func TestTaskPanicIsIsolatedAndStackReset(t *testing.T) {
	eng := NewEngine(WithShards(1))
	eng.Run(Task{
		Name: "bad",
		Run: func(e appkit.RegionEnv) uint32 {
			e.PushFrame(2) // left on the stack when the panic unwinds
			r := e.NewRegion()
			e.DeleteRegion(r)
			e.DeleteRegion(r) // double delete: *Fault panic
			return 0
		},
	})
	eng.Run(simpleTask(99))
	agg := eng.Close()
	if agg.Failures != 1 {
		t.Fatalf("failures = %d, want 1", agg.Failures)
	}
	if agg.Tasks != 2 {
		t.Fatalf("tasks = %d, want 2", agg.Tasks)
	}
	if !strings.Contains(agg.PerShard[0].LastError, "deleted-region") {
		t.Fatalf("LastError = %q, want deleted-region fault", agg.PerShard[0].LastError)
	}
	if got := eng.workers()[0].env.Runtime().Depth(); got != 0 {
		t.Fatalf("shadow stack depth after reset = %d, want 0", got)
	}
	if err := eng.workers()[0].env.Runtime().Verify(); err != nil {
		t.Fatalf("invariants violated after recovery: %v", err)
	}
}

// TestAppOnShardMatchesDedicatedEnv runs a real benchmark app on a shard
// environment twice in a row and checks both runs compute the same checksum
// as a dedicated appkit environment — the shard env is a faithful, reusable
// host for the paper's applications.
func TestAppOnShardMatchesDedicatedEnv(t *testing.T) {
	app := tile.App()
	scale := app.DefaultScale / 48
	if scale < 1 {
		scale = 1
	}
	want := app.Region(appkit.NewRegionEnv("safe", appkit.Config{}), scale)

	eng := NewEngine(WithShards(1))
	var got [2]uint32
	for i := range got {
		i := i
		eng.Submit(Task{
			Name: "tile",
			Run: func(e appkit.RegionEnv) uint32 {
				got[i] = app.Region(e, scale)
				return got[i]
			},
		})
	}
	agg := eng.Close()
	if agg.Failures != 0 {
		t.Fatalf("app task failed: %v", agg.PerShard[0].LastError)
	}
	for i, g := range got {
		if g != want {
			t.Fatalf("run %d checksum %#x, want %#x", i, g, want)
		}
	}
	if err := eng.workers()[0].env.Runtime().Verify(); err != nil {
		t.Fatalf("shard invariants violated after app runs: %v", err)
	}
}
