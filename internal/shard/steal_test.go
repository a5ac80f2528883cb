package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

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
// stealable tasks, and pinned tasks, with object counts spanning two orders
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

// TestStealingKeepsChecksumAndDrains is the scheduler's determinism gate:
// randomized task mixes run at 1, 2, 4, and 8 shards with stealing enabled
// must drain completely and produce the single-shard checksum, whatever
// placement stealing improvised. Every shard's heap invariants must hold
// after the run.
func TestStealingKeepsChecksumAndDrains(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tasks := randomTasks(rand.New(rand.NewSource(seed)), 200)
		var want uint32
		for shardsIdx, n := range []int{1, 2, 4, 8} {
			eng := NewEngine(WithShards(n))
			submitAll(eng, tasks)
			agg := eng.Close()
			if agg.Tasks != uint64(len(tasks)) {
				t.Fatalf("seed %d shards %d: ran %d tasks, want %d", seed, n, agg.Tasks, len(tasks))
			}
			if agg.Failures != 0 {
				t.Fatalf("seed %d shards %d: %d failures", seed, n, agg.Failures)
			}
			for i, w := range eng.workers() {
				if err := w.env.Runtime().Verify(); err != nil {
					t.Fatalf("seed %d shards %d: shard %d invariants: %v", seed, n, i, err)
				}
			}
			if shardsIdx == 0 {
				want = agg.Checksum
				continue
			}
			if agg.Checksum != want {
				t.Fatalf("seed %d: checksum at %d shards = %#x, want %#x (stealing changed results)",
					seed, n, agg.Checksum, want)
			}
		}
	}
}

// TestImbalancedWorkloadIsStolen homes every task on one shard, unpinned:
// the other three workers have nothing of their own and must steal. Verifies
// steals are counted coherently and that the load actually spread. The
// first task to start waits (up to 10 s) until a task has started on
// another shard, so a busy host cannot let one worker drain all 48 tasks —
// the home shard before any sibling is scheduled, or one thief before the
// home shard wakes. A scheduler that never steals still fails.
func TestImbalancedWorkloadIsStolen(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("stealing needs a sibling worker actually running")
	}
	eng := NewEngine(WithShards(4))
	const tasks, home = 48, 2
	var (
		mu        sync.Mutex
		first     string // the shard the first task started on
		spread    sync.Once
		elsewhere = make(chan struct{}) // closed once a task starts on another shard
	)
	for i := 0; i < tasks; i++ {
		tk := workTask(uint32(i), 128)
		tk.Home = home + 1
		run := tk.Run
		tk.Run = func(e appkit.RegionEnv) uint32 {
			mu.Lock()
			isFirst := first == ""
			if isFirst {
				first = e.Name()
			} else if e.Name() != first {
				spread.Do(func() { close(elsewhere) })
			}
			mu.Unlock()
			if isFirst {
				select {
				case <-elsewhere:
				case <-time.After(10 * time.Second):
				}
			}
			return run(e)
		}
		eng.Submit(tk)
	}
	agg := eng.Close()
	if agg.Failures != 0 || agg.Tasks != tasks {
		t.Fatalf("tasks=%d failures=%d, want %d/0", agg.Tasks, agg.Failures, tasks)
	}
	if agg.Steals == 0 {
		t.Fatal("no steals on a fully imbalanced workload")
	}
	var perShard uint64
	busy := 0
	for _, s := range agg.PerShard {
		perShard += s.Steals
		if s.Tasks > 0 {
			busy++
		}
	}
	if perShard != agg.Steals {
		t.Fatalf("per-shard steals sum to %d, aggregate says %d", perShard, agg.Steals)
	}
	if agg.PerShard[home].Steals != 0 {
		t.Fatalf("home shard %d 'stole' %d of its own tasks", home, agg.PerShard[home].Steals)
	}
	if busy < 2 {
		t.Fatalf("stealing left the load on %d shard(s)", busy)
	}
}

// TestNoStealKeepsTasksHome pins down the A/B control: with WithNoSteal the
// engine is the static-placement scheduler — zero steals, and an
// imbalanced workload stays exactly where its home put it.
func TestNoStealKeepsTasksHome(t *testing.T) {
	eng := NewEngine(WithShards(4), WithNoSteal())
	const tasks, home = 24, 2
	for i := 0; i < tasks; i++ {
		tk := workTask(uint32(i), 16)
		tk.Home = home + 1
		eng.Submit(tk)
	}
	agg := eng.Close()
	if agg.Failures != 0 {
		t.Fatalf("%d failures", agg.Failures)
	}
	if agg.Steals != 0 {
		t.Fatalf("NoSteal engine recorded %d steals", agg.Steals)
	}
	for i, s := range agg.PerShard {
		want := uint64(0)
		if i == home {
			want = tasks
		}
		if s.Tasks != want {
			t.Fatalf("shard %d ran %d tasks, want %d under NoSteal", i, s.Tasks, want)
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
