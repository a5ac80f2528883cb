package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"regions/internal/apps/appkit"
)

// workTask is simpleTask with a controllable object count, so randomized
// mixes contain genuinely unequal amounts of simulated work.
func workTask(seed uint32, objs int) Task {
	return Task{
		Name: "work",
		Run: func(e appkit.RegionEnv) uint32 {
			sp := e.Space()
			r := e.NewRegion()
			cln := e.SizeCleanup(16)
			sum := seed
			for i := 0; i < objs; i++ {
				p := e.Ralloc(r, 16, cln)
				sp.Store(p, seed+uint32(i))
				sum = sum*31 + sp.Load(p)
			}
			if !e.DeleteRegion(r) {
				panic("work task: region not deletable")
			}
			return sum
		},
	}
}

// keyHome gives the randomized mix's named keys their homes: FNV-1a of the
// key, so a handful of keys lands irregularly across every shard count.
// TestNoStealGolden pins the placement this yields.
func keyHome(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h) + 1
}

// submitAll submits ts in order, one Submit per task.
func submitAll(eng *Engine, ts []Task) {
	for _, t := range ts {
		eng.Submit(t)
	}
}

// randomTasks builds a reproducible mix of plain round-robin tasks, homed
// unpinned tasks, and pinned tasks, with object counts spanning two orders
// of magnitude. Each task is self-contained, so the summed checksum is a
// pure function of the task set.
func randomTasks(rng *rand.Rand, n int) []Task {
	tasks := make([]Task, 0, n)
	for i := 0; i < n; i++ {
		tk := workTask(rng.Uint32(), 1+rng.Intn(96))
		switch rng.Intn(4) {
		case 0:
			tk.Home = keyHome(fmt.Sprintf("key-%d", rng.Intn(5)))
		case 1:
			tk.Home = keyHome(fmt.Sprintf("pin-%d", rng.Intn(3)))
			tk.Pin = true
		}
		tasks = append(tasks, tk)
	}
	return tasks
}

// submitRecorded submits ts in order and returns a slice that, once the
// engine has closed, holds the shard each task ran on.
func submitRecorded(eng *Engine, ts []Task) []int {
	ran := make([]int, len(ts))
	for i, tk := range ts {
		tk.Done = func(res TaskResult) { ran[i] = res.Shard }
		eng.Submit(tk)
	}
	return ran
}

// matchRef fails unless a closed engine's run is the reference scheduler's
// to the task: every task on the predicted shard, every shard's cycles and
// steals as predicted, and the same summed checksum.
func matchRef(t *testing.T, label string, agg Aggregate, ran []int, ref refResult) {
	t.Helper()
	if !reflect.DeepEqual(ran, ref.shard) {
		t.Fatalf("%s: tasks ran on shards %v, reference %v", label, ran, ref.shard)
	}
	for s, st := range agg.PerShard {
		if st.SimCycles != ref.cycles[s] || st.Steals != ref.steals[s] {
			t.Fatalf("%s: shard %d ran %d cycles with %d steals, reference %d and %d",
				label, s, st.SimCycles, st.Steals, ref.cycles[s], ref.steals[s])
		}
	}
	if agg.Checksum != ref.checksum {
		t.Fatalf("%s: checksum %#x, reference %#x", label, agg.Checksum, ref.checksum)
	}
}

// TestStealingKeepsChecksumAndDrains is the scheduler's determinism gate:
// randomized task mixes run at 1, 2, 4, and 8 shards, at GOMAXPROCS 1 and
// 8, must drain completely and match the reference scheduler exactly —
// each task's shard, each shard's cycles and steals — and the summed
// checksum must be the single-shard one. Every shard's heap invariants
// must hold after the run.
func TestStealingKeepsChecksumAndDrains(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{1, 2, 3} {
		tasks := randomTasks(rand.New(rand.NewSource(seed)), 200)
		var want uint32
		for shardsIdx, n := range []int{1, 2, 4, 8} {
			ref := refSchedule(tasks, n)
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("seed %d shards %d GOMAXPROCS %d", seed, n, procs)
				eng := NewEngine(WithShards(n))
				ran := submitRecorded(eng, tasks)
				agg := eng.Close()
				if agg.Tasks != uint64(len(tasks)) || agg.Failures != 0 {
					t.Fatalf("%s: ran %d tasks with %d failures, want %d and 0", label, agg.Tasks, agg.Failures, len(tasks))
				}
				for i, w := range eng.workers() {
					if err := w.env.Runtime().Verify(); err != nil {
						t.Fatalf("%s: shard %d invariants: %v", label, i, err)
					}
				}
				matchRef(t, label, agg, ran, ref)
			}
			if shardsIdx == 0 {
				want = ref.checksum
			} else if ref.checksum != want {
				t.Fatalf("seed %d: checksum at %d shards = %#x, want %#x (placement changed results)",
					seed, n, ref.checksum, want)
			}
		}
	}
}

// TestImbalancedWorkloadIsStolen homes 48 equal unpinned tasks on shard 2
// of 4, so the other three shards hold nothing of their own and must
// steal. The split is exact: the reference scheduler's, which is an even
// 12 tasks per shard with every sibling's 12 stolen.
func TestImbalancedWorkloadIsStolen(t *testing.T) {
	const tasks, home = 48, 2
	ts := make([]Task, tasks)
	for i := range ts {
		ts[i] = workTask(uint32(i), 128)
		ts[i].Home = home + 1
	}
	eng := NewEngine(WithShards(4))
	ran := submitRecorded(eng, ts)
	agg := eng.Close()
	if agg.Failures != 0 || agg.Tasks != tasks {
		t.Fatalf("tasks=%d failures=%d, want %d/0", agg.Tasks, agg.Failures, tasks)
	}
	matchRef(t, "imbalanced", agg, ran, refSchedule(ts, 4))
	wantSteals := []uint64{12, 12, 0, 12}
	for s, st := range agg.PerShard {
		if st.Tasks != 12 || st.Steals != wantSteals[s] {
			t.Errorf("shard %d ran %d tasks with %d steals, want 12 and %d", s, st.Tasks, st.Steals, wantSteals[s])
		}
	}
	if agg.Steals != 36 {
		t.Errorf("aggregate steals %d, want 36", agg.Steals)
	}
}

// TestNoStealKeepsTasksHome pins down the A/B control: pinned tasks are
// the static-placement scheduler — zero steals, and an imbalanced workload
// stays exactly where its home put it.
func TestNoStealKeepsTasksHome(t *testing.T) {
	eng := NewEngine(WithShards(4))
	const tasks, home = 24, 2
	for i := 0; i < tasks; i++ {
		tk := workTask(uint32(i), 16)
		tk.Home, tk.Pin = home+1, true
		eng.Submit(tk)
	}
	agg := eng.Close()
	if agg.Failures != 0 {
		t.Fatalf("%d failures", agg.Failures)
	}
	if agg.Steals != 0 {
		t.Fatalf("pinned tasks recorded %d steals", agg.Steals)
	}
	for i, s := range agg.PerShard {
		want := uint64(0)
		if i == home {
			want = tasks
		}
		if s.Tasks != want {
			t.Fatalf("shard %d ran %d tasks, want %d when pinned", i, s.Tasks, want)
		}
	}
}

// TestPanicIsolationUnderStealing runs a burst of faulting tasks through a
// stealing engine: wherever each panic lands, that shard must recover, keep
// its heap invariants, and the healthy tasks' checksum must be unaffected.
func TestPanicIsolationUnderStealing(t *testing.T) {
	goodChecksum := func(shards int, opts ...Option) uint32 {
		eng := NewEngine(append([]Option{WithShards(shards)}, opts...)...)
		for i := 0; i < 32; i++ {
			eng.Submit(simpleTask(uint32(i)))
		}
		agg := eng.Close()
		if agg.Failures != 0 {
			t.Fatalf("control run failed")
		}
		return agg.Checksum
	}
	want := goodChecksum(1)

	eng := NewEngine(WithShards(4))
	const bad = 8
	for i := 0; i < bad; i++ {
		eng.Submit(Task{
			Name: "bad",
			Home: 1, // all homed together so some panics run stolen
			Run: func(e appkit.RegionEnv) uint32 {
				r := e.NewRegion()
				e.DeleteRegion(r)
				e.DeleteRegion(r) // double delete: *Fault panic
				return 0
			},
		})
	}
	for i := 0; i < 32; i++ {
		eng.Submit(simpleTask(uint32(i)))
	}
	agg := eng.Close()
	if agg.Failures != bad {
		t.Fatalf("failures = %d, want %d", agg.Failures, bad)
	}
	if agg.Tasks != bad+32 {
		t.Fatalf("tasks = %d, want %d", agg.Tasks, bad+32)
	}
	if agg.Checksum != want {
		t.Fatalf("healthy checksum %#x, want %#x: a panic leaked into results", agg.Checksum, want)
	}
	for i, w := range eng.workers() {
		if err := w.env.Runtime().Verify(); err != nil {
			t.Fatalf("shard %d invariants violated after recovered panics: %v", i, err)
		}
	}
}
