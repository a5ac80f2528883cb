package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/core"
)

// pinnedDo runs fn as a pinned task on shard i's worker goroutine — the
// only legal way for a test's main goroutine to touch a live shard's
// runtime — and returns the task's error (a recovered panic, e.g. a Fault
// or a failed assertion fn raised).
func pinnedDo(e *Engine, i int, fn func(rt *core.Runtime)) error {
	w := e.workers()[i]
	done := make(chan error, 1)
	e.submitTo(w, Task{
		Name: "test-pinned",
		Pin:  true,
		Run: func(appkit.RegionEnv) uint32 {
			fn(w.env.Runtime())
			return 0
		},
		Done: func(res TaskResult) { done <- res.Err },
	})
	return <-done
}

// registerSizeCleanups registers the named size cleanups on every live
// shard, the precondition ImportRegion places on a receiving runtime: ids
// are remapped by name, so every name a record uses must exist everywhere a
// region may land. Real drivers do this once at startup (and again on
// grown shards); see internal/serve.
func registerSizeCleanups(t *testing.T, e *Engine, sizes ...int) {
	t.Helper()
	for i := range e.workers() {
		if err := pinnedDo(e, i, func(rt *core.Runtime) {
			for _, s := range sizes {
				rt.SizeCleanup(s)
			}
		}); err != nil {
			t.Fatalf("register cleanups on shard %d: %v", i, err)
		}
	}
}

// buildChain allocates a self-contained linked list (small-int payloads,
// intra-region links only) and returns the region and its content digest.
// The head is held only host-side, so the region stays exportable.
func buildChain(rt *core.Runtime, nodes int) (*core.Region, uint32) {
	r := rt.NewRegion()
	cln := rt.SizeCleanup(8)
	var prev core.Ptr
	for i := 0; i < nodes; i++ {
		p := rt.Ralloc(r, 8, cln)
		rt.Space().Store(p, core.Word(i*3+1))
		rt.StorePtr(p+4, prev)
		prev = p
	}
	return r, rt.ContentChecksum(r)
}

// TestMigrateRegionMovesState is the point-to-point tentpole check: a
// region built on shard 0 moves to shard 1 with its content digest intact,
// stays fully usable there, and the stale donor handle faults with
// FaultMigratedRegion. Both runtimes Verify inside the migration tasks
// themselves (exportOn/importOn), so a clean return already proves the
// invariants held on each side.
func TestMigrateRegionMovesState(t *testing.T) {
	eng := NewEngine(WithShards(2))
	defer eng.Close()
	registerSizeCleanups(t, eng, 8)

	var r *core.Region
	var want uint32
	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		r, want = buildChain(rt, 40)
	}); err != nil {
		t.Fatalf("build: %v", err)
	}

	m, err := eng.MigrateRegion(r, 0, 1)
	if err != nil {
		t.Fatalf("MigrateRegion: %v", err)
	}
	if m.From != 0 || m.To != 1 || m.New == nil || m.Pages != m.Rec.Pages || m.Pages == 0 {
		t.Fatalf("migration record %+v is incoherent", m)
	}
	if count, pages := eng.Migrations(); count != 1 || pages != uint64(m.Pages) {
		t.Fatalf("Migrations() = (%d, %d), want (1, %d)", count, pages, m.Pages)
	}

	if err := pinnedDo(eng, 1, func(rt *core.Runtime) {
		if got := rt.ContentChecksum(m.New); got != want {
			panic(fmt.Sprintf("content digest %#x after migration, want %#x", got, want))
		}
		// The region is live property of shard 1 now: grow it, then delete it.
		p := rt.Ralloc(m.New, 8, rt.SizeCleanup(8))
		rt.Space().Store(p, 7)
		if !rt.DeleteRegion(m.New) {
			panic("imported region not deletable")
		}
	}); err != nil {
		t.Fatalf("receiver-side use: %v", err)
	}

	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		_, err := rt.TryRalloc(r, 8, rt.SizeCleanup(8))
		var f *core.Fault
		if !errors.As(err, &f) || f.Kind != core.FaultMigratedRegion {
			panic(fmt.Sprintf("stale handle error %v, want FaultMigratedRegion", err))
		}
	}); err != nil {
		t.Fatalf("donor-side staleness: %v", err)
	}
}

// TestMigrateRegionValidation covers the fail-fast surface: bad shard
// indexes, donor == receiver, and a non-quiescent region (externally
// referenced) that must survive the refused export untouched.
func TestMigrateRegionValidation(t *testing.T) {
	eng := NewEngine(WithShards(2))
	defer eng.Close()

	if _, err := eng.MigrateRegion(nil, 0, 5); err == nil {
		t.Fatal("out-of-range receiver accepted")
	}
	if _, err := eng.MigrateRegion(nil, -1, 1); err == nil {
		t.Fatal("out-of-range donor accepted")
	}
	if _, err := eng.MigrateRegion(nil, 1, 1); err == nil {
		t.Fatal("donor == receiver accepted")
	}

	var pinnedRegion *core.Region
	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		a := rt.NewRegion()
		b := rt.NewRegion()
		p := rt.Ralloc(a, 8, rt.SizeCleanup(8))
		q := rt.Ralloc(b, 8, rt.SizeCleanup(8))
		rt.StorePtr(p, q) // a holds a live reference into b
		pinnedRegion = b
	}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, err := eng.MigrateRegion(pinnedRegion, 0, 1); !errors.Is(err, core.ErrExportReferenced) {
		t.Fatalf("referenced region export error %v, want ErrExportReferenced", err)
	}
	if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
		if pinnedRegion.Deleted() {
			panic("refused export deleted the region")
		}
		rt.Ralloc(pinnedRegion, 8, rt.SizeCleanup(8))
		if err := rt.Verify(); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatalf("region unusable after refused export: %v", err)
	}
}

// TestMigrateUnderLoad is the randomized tentpole gate: a long-lived region
// hops donor→receiver repeatedly while unpinned work races on every shard,
// with Verify running on donor and receiver inside each hop; the digest
// must survive every hop and the engine's summed checksum must be
// bit-identical to the same task set run with migration off.
func TestMigrateUnderLoad(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(11))
	tasks := randomTasks(rng, 160)

	run := func(migrate bool) uint32 {
		eng := NewEngine(WithShards(shards))
		registerSizeCleanups(t, eng, 8)
		var r *core.Region
		var want uint32
		if err := pinnedDo(eng, 0, func(rt *core.Runtime) {
			r, want = buildChain(rt, 64)
		}); err != nil {
			t.Fatalf("build: %v", err)
		}
		// Feed the load in slices so migrations genuinely interleave with
		// task execution rather than running before or after it.
		slice := len(tasks) / 8
		at := 0
		feed := func() {
			if at < len(tasks) {
				end := at + slice
				if end > len(tasks) {
					end = len(tasks)
				}
				submitAll(eng, tasks[at:end])
				at = end
			}
		}
		feed()
		if migrate {
			cur := 0
			for hop := 0; hop < 7; hop++ {
				feed()
				next := (cur + 1 + hop%(shards-1)) % shards
				if next == cur {
					next = (cur + 1) % shards
				}
				m, err := eng.MigrateRegion(r, cur, next)
				if err != nil {
					t.Fatalf("hop %d (%d→%d): %v", hop, cur, next, err)
				}
				r, cur = m.New, next
				if err := pinnedDo(eng, cur, func(rt *core.Runtime) {
					if got := rt.ContentChecksum(r); got != want {
						panic(fmt.Sprintf("hop %d: digest %#x, want %#x", hop, got, want))
					}
				}); err != nil {
					t.Fatalf("hop %d digest check: %v", hop, err)
				}
			}
			if count, _ := eng.Migrations(); count != 7 {
				t.Fatalf("Migrations() count = %d, want 7", count)
			}
		}
		for at < len(tasks) {
			feed()
		}
		// Delete the traveler wherever it ended up so every heap drains clean.
		home := 0
		if migrate {
			found := false
			for i := range eng.workers() {
				var owned bool
				if err := pinnedDo(eng, i, func(rt *core.Runtime) {
					for _, lr := range rt.LiveRegions() {
						if lr == r {
							owned = true
						}
					}
				}); err != nil {
					t.Fatalf("owner scan: %v", err)
				}
				if owned {
					home, found = i, true
					break
				}
			}
			if !found {
				t.Fatal("traveler region owned by no shard after its hops")
			}
		}
		if err := pinnedDo(eng, home, func(rt *core.Runtime) {
			if !rt.DeleteRegion(r) {
				panic("traveler region not deletable")
			}
			if err := rt.Verify(); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatalf("final delete: %v", err)
		}
		agg := eng.Close()
		if agg.Failures != 0 {
			t.Fatalf("%d task failures (migrate=%v)", agg.Failures, migrate)
		}
		if agg.Tasks < uint64(len(tasks)) {
			t.Fatalf("ran %d tasks, want at least %d", agg.Tasks, len(tasks))
		}
		return agg.Checksum
	}

	if on, off := run(true), run(false); on != off {
		t.Fatalf("summed checksum with migration on = %#x, off = %#x: migration leaked into results", on, off)
	}
}

// TestResizeGrowAndShrink exercises both directions live: grow 2→4 with
// work landing on the new shards and resident regions untouched, then a
// shrink that the grow-only engine refuses without disturbing anything.
func TestResizeGrowAndShrink(t *testing.T) {
	eng := NewEngine(WithShards(2))

	type traveler struct {
		r    *core.Region
		want uint32
	}
	var tr [2]traveler
	for i := range tr {
		i := i
		if err := pinnedDo(eng, i, func(rt *core.Runtime) {
			tr[i].r, tr[i].want = buildChain(rt, 24+8*i)
		}); err != nil {
			t.Fatalf("build on shard %d: %v", i, err)
		}
	}

	if err := eng.Resize(4); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d after grow, want 4", eng.Shards())
	}
	// Home one pinned task on each grown shard and confirm it runs there.
	done := make(chan int, 2)
	for i := 2; i < 4; i++ {
		tk := workTask(uint32(i), 8)
		tk.Home = i + 1
		tk.Pin = true
		tk.Done = func(res TaskResult) { done <- res.Shard }
		eng.Submit(tk)
	}
	got := map[int]bool{<-done: true, <-done: true}
	if !got[2] || !got[3] {
		t.Fatalf("pinned tasks ran on shards %v, want the grown shards 2 and 3", got)
	}

	for _, n := range []int{1, 0} {
		if err := eng.Resize(n); err == nil {
			t.Fatalf("Resize(%d) accepted on a 4-shard engine", n)
		}
	}
	if err := eng.Resize(4); err != nil {
		t.Fatalf("Resize to the current size: %v", err)
	}
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d after refused shrink, want 4", eng.Shards())
	}
	for i := range tr {
		i := i
		if err := pinnedDo(eng, i, func(rt *core.Runtime) {
			if got := rt.ContentChecksum(tr[i].r); got != tr[i].want {
				panic(fmt.Sprintf("resident digest %#x, want %#x", got, tr[i].want))
			}
			if !rt.DeleteRegion(tr[i].r) {
				panic("resident region not deletable")
			}
			if err := rt.Verify(); err != nil {
				panic(err)
			}
		}); err != nil {
			t.Fatalf("shard %d checks: %v", i, err)
		}
	}

	agg := eng.Close()
	if agg.Shards != 4 || len(agg.PerShard) != 4 {
		t.Fatalf("aggregate Shards = %d with %d PerShard entries, want 4 and 4", agg.Shards, len(agg.PerShard))
	}
	var perShardTasks uint64
	for i, s := range agg.PerShard {
		if s.Shard != i {
			t.Fatalf("PerShard[%d].Shard = %d, want shard order", i, s.Shard)
		}
		perShardTasks += s.Tasks
	}
	if perShardTasks != agg.Tasks {
		t.Fatalf("per-shard tasks sum %d != aggregate %d", perShardTasks, agg.Tasks)
	}
	if err := eng.Resize(8); err == nil {
		t.Fatal("Resize after Close accepted")
	}
}
