package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"regions/internal/apps/appkit"
	"regions/internal/core"
)

// runOn runs fn as a task on shard i, the way a caller touches a live
// shard's runtime, and returns the task's error (a recovered panic, e.g. a
// Fault or a failed assertion fn raised).
func runOn(e *Engine, i int, fn func(rt *core.Runtime)) error {
	return e.Run(Task{
		Name: "test-run",
		Home: i + 1,
		Run: func(env appkit.RegionEnv) uint32 {
			fn(e.Env(i).Runtime())
			return 0
		},
	}).Err
}

// registerSizeCleanups registers the named size cleanups on every live
// shard, the precondition ImportRegion places on a receiving runtime: ids
// are remapped by name, so every name a record uses must exist everywhere a
// region may land. Real drivers do this once at startup (and again on
// grown shards); see internal/serve.
func registerSizeCleanups(t *testing.T, e *Engine, sizes ...int) {
	t.Helper()
	for i := range e.workers() {
		if err := runOn(e, i, func(rt *core.Runtime) {
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

// TestMigrateRegionMovesState is the point-to-point check: a region built
// on shard 0 moves to shard 1 with its content digest intact, stays fully
// usable there, and the stale donor handle faults with FaultMigratedRegion.
// Both runtimes Verify inside the migration tasks themselves (mustVerify),
// so a clean return already proves the invariants held on each side.
func TestMigrateRegionMovesState(t *testing.T) {
	eng := NewEngine(WithShards(2))
	defer eng.Close()
	registerSizeCleanups(t, eng, 8)

	var r *core.Region
	var want uint32
	if err := runOn(eng, 0, func(rt *core.Runtime) {
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

	if err := runOn(eng, 1, func(rt *core.Runtime) {
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

	if err := runOn(eng, 0, func(rt *core.Runtime) {
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
	if err := runOn(eng, 0, func(rt *core.Runtime) {
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
	if err := runOn(eng, 0, func(rt *core.Runtime) {
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

// TestMigrateRegionRefusesForeignRegion: a migration that names the wrong
// donor is refused with a typed error, and no heap changes. Shard 1's
// chain has its region header at the address of shard 0's own first
// region, which a donor that trusted the address would release in its
// place; shard 0's region is pointer-free in one case and holds pointers
// in the other.
func TestMigrateRegionRefusesForeignRegion(t *testing.T) {
	for _, pointers := range []bool{false, true} {
		t.Run(fmt.Sprintf("pointers=%v", pointers), func(t *testing.T) {
			eng := NewEngine(WithShards(3))
			defer eng.Close()
			registerSizeCleanups(t, eng, 8)
			var own, r1 *core.Region
			var ownSum, want uint32
			if err := runOn(eng, 0, func(rt *core.Runtime) {
				if pointers {
					own, ownSum = buildChain(rt, 4)
					return
				}
				own = rt.NewRegion()
				rt.Space().Store(rt.RstrAlloc(own, 64), 7)
				ownSum = rt.ContentChecksum(own)
			}); err != nil {
				t.Fatalf("build on shard 0: %v", err)
			}
			if err := runOn(eng, 1, func(rt *core.Runtime) { r1, want = buildChain(rt, 40) }); err != nil {
				t.Fatalf("build on shard 1: %v", err)
			}

			_, err := eng.MigrateRegion(r1, 0, 2)
			var f *core.Fault
			if !errors.As(err, &f) || f.Kind != core.FaultBadArgument {
				t.Fatalf("migrating shard 1's region from shard 0: %v, want a FaultBadArgument *Fault", err)
			}
			if count, _ := eng.Migrations(); count != 0 {
				t.Errorf("Migrations() count = %d after a refusal, want 0", count)
			}
			checks := []func(rt *core.Runtime){
				func(rt *core.Runtime) {
					if rt.RegionOf(f.Addr) != own {
						panic("shard 0's own region does not hold the refused header address")
					}
					if own.Deleted() || rt.ContentChecksum(own) != ownSum {
						panic(fmt.Sprintf("shard 0's own region changed: %v", own))
					}
				},
				func(rt *core.Runtime) {
					if r1.Deleted() || r1.Migrated() {
						panic(fmt.Sprintf("the refused region was retired: %v", r1))
					}
					if got := rt.ContentChecksum(r1); got != want {
						panic(fmt.Sprintf("refused region digest %#x, want %#x", got, want))
					}
				},
				func(*core.Runtime) {},
			}
			for i, check := range checks {
				if err := runOn(eng, i, func(rt *core.Runtime) {
					check(rt)
					if err := rt.Verify(); err != nil {
						panic(err)
					}
				}); err != nil {
					t.Errorf("shard %d after the refusal: %v", i, err)
				}
			}
		})
	}
}

// TestMigrateRegionAfterClose: a closed engine refuses a migration with an
// error, as Resize does, and leaves the region where it was.
func TestMigrateRegionAfterClose(t *testing.T) {
	eng := NewEngine(WithShards(2))
	registerSizeCleanups(t, eng, 8)
	var r *core.Region
	if err := runOn(eng, 0, func(rt *core.Runtime) { r, _ = buildChain(rt, 8) }); err != nil {
		t.Fatalf("build: %v", err)
	}
	agg := eng.Close()
	if _, err := eng.MigrateRegion(r, 0, 1); err == nil {
		t.Fatal("MigrateRegion after Close succeeded")
	}
	if r.Migrated() || eng.Close().Tasks != agg.Tasks {
		t.Fatal("a refused migration after Close moved the region or ran a task")
	}
}

// TestMigrateUnderLoad is the randomized migration gate: a long-lived
// region hops donor→receiver repeatedly between slices of work run on
// every shard (the held work waits for Close), with Verify running on
// donor and receiver inside each hop; the digest must survive every hop
// and the engine's summed checksum must be bit-identical to the same task
// set run with migration off.
func TestMigrateUnderLoad(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(11))
	tasks := randomTasks(rng, 160)

	run := func(migrate bool) uint32 {
		eng := NewEngine(WithShards(shards))
		registerSizeCleanups(t, eng, 8)
		var r *core.Region
		var want uint32
		if err := runOn(eng, 0, func(rt *core.Runtime) {
			r, want = buildChain(rt, 64)
		}); err != nil {
			t.Fatalf("build: %v", err)
		}
		// Feed the load in slices so migrations genuinely interleave with
		// task execution rather than running before or after it.
		slice := len(tasks) / 8
		at := 0
		next := func() {
			if at < len(tasks) {
				end := min(at+slice, len(tasks))
				feed(eng, tasks[at:end])
				at = end
			}
		}
		next()
		if migrate {
			cur := 0
			for hop := 0; hop < 7; hop++ {
				next()
				next := (cur + 1 + hop%(shards-1)) % shards
				if next == cur {
					next = (cur + 1) % shards
				}
				m, err := eng.MigrateRegion(r, cur, next)
				if err != nil {
					t.Fatalf("hop %d (%d→%d): %v", hop, cur, next, err)
				}
				r, cur = m.New, next
				if err := runOn(eng, cur, func(rt *core.Runtime) {
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
			next()
		}
		// Delete the traveler wherever it ended up so every heap drains clean.
		home := 0
		if migrate {
			found := false
			for i := range eng.workers() {
				var owned bool
				if err := runOn(eng, i, func(rt *core.Runtime) {
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
		if err := runOn(eng, home, func(rt *core.Runtime) {
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
		if err := runOn(eng, i, func(rt *core.Runtime) {
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
	// Home one task on each grown shard and confirm it runs there.
	for i := 2; i < 4; i++ {
		tk := workTask(uint32(i), 8)
		tk.Home = i + 1
		if res := eng.Run(tk); res.Shard != i || res.Err != nil {
			t.Fatalf("task homed on grown shard %d ran on shard %d (err %v)", i, res.Shard, res.Err)
		}
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
		if err := runOn(eng, i, func(rt *core.Runtime) {
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
