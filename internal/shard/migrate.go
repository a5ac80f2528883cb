package shard

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/metrics"
)

// This file is the engine's elastic-sharding layer: live migration of
// regions between shard runtimes and live growth of the worker set.
//
// Work stealing moves *tasks*, but a task pinned to the shard that owns its
// regions cannot move — a tenant whose state lives on shard 0 hammers shard
// 0 no matter how idle its siblings are. Migration moves the *state*: the
// donor exports a quiesced region (core.ExportRegion serializes pages and
// remaps nothing), the receiver imports it into its own address space
// (core.ImportRegion rewrites intra-region pointers in O(pages)), and from
// then on the tenant's pinned tasks land on the receiver. Both steps run as
// pinned tasks on the owning workers, so each runtime is only ever touched
// by its own goroutine — the shared-nothing discipline survives.
//
// Ownership moves only at explicit program points: the driver calls Resize
// and MigrateRegion at a barrier of its choosing (internal/serve does so
// between its two phases). The engine never migrates on its own.
//
// Checksum discipline: migration tasks return checksum 0, and region
// content is placement-independent by construction (core.ContentChecksum),
// so an engine's summed checksum is bit-identical with migration forced on
// or off — the determinism gate extends across migration.

// migrationCycleBounds buckets the simulated cost of one migration
// (export + import task cycles) for the regions_migration_cycles histogram.
var migrationCycleBounds = [...]uint64{
	1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
}

// Migration describes one region moved between shards.
type Migration struct {
	// From and To are the donor and receiver shard positions.
	From, To int
	// Old is the donor-side handle, now migrated: any use faults with
	// core.FaultMigratedRegion. New is the live handle on the receiver.
	Old, New *core.Region
	// Rec is the transfer record; Rec.Translate maps pointers the driver
	// captured into the old placement onto the new one.
	Rec *core.RegionRecord
	// Pages is the page count moved.
	Pages int
	// Cycles is the simulated cost of the move: the export and import
	// tasks' cycle windows summed.
	Cycles uint64
}

// Migrations returns the engine's totals: completed migrations and pages
// moved.
func (e *Engine) Migrations() (count, pages uint64) {
	e.board.mu.Lock()
	defer e.board.mu.Unlock()
	return e.board.migrations, e.board.migratedPages
}

// onShard runs step as a pinned task on w, giving it exclusive use of w's
// runtime, and returns the task's simulated cycles with step's error (or
// the task's recovered panic).
func (e *Engine) onShard(w *worker, name string, step func(rt *core.Runtime) error) (uint64, error) {
	var stepErr error
	var cycles uint64
	done := make(chan error, 1)
	w.q <- job{Task: Task{
		Name: name,
		Run: func(appkit.RegionEnv) uint32 {
			stepErr = step(w.env.Runtime())
			return 0
		},
		Done: func(res TaskResult) {
			cycles = res.EndCycles - res.StartCycles
			done <- res.Err
		},
	}}
	if err := <-done; err != nil {
		return cycles, err
	}
	return cycles, stepErr
}

// mustVerify panics if rt's heap fails its structural checks: a migration
// step that corrupts a runtime is a task failure, not a refused move.
func mustVerify(rt *core.Runtime) {
	if err := rt.Verify(); err != nil {
		panic(err)
	}
}

// MigrateRegion moves r from shard from to shard to and returns the
// completed Migration. The export and import run as pinned tasks on the
// owning workers; between them the region exists only as a serialized
// record, and afterwards r faults with core.FaultMigratedRegion while
// Migration.New is the live handle.
//
// The region must be quiescent: unreferenced from other regions, frames,
// and globals, with no outbound cross-region pointers (else
// core.ErrExportReferenced / core.ErrExportCrossRegion). If the receiver
// cannot place the pages (OOM), the region is re-imported into the donor
// and the error returned — the region survives either way.
//
// MigrateRegion blocks on worker queues and must not be called from a task
// or Done callback (a worker waiting on its own queue deadlocks). After
// Close it returns an error, as Resize does.
func (e *Engine) MigrateRegion(r *core.Region, from, to int) (Migration, error) {
	if r == nil {
		return Migration{}, fmt.Errorf("shard: MigrateRegion: nil region")
	}
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	if e.closed.Load() {
		return Migration{}, fmt.Errorf("shard: MigrateRegion after Close")
	}
	ws := e.workers()
	if from < 0 || from >= len(ws) || to < 0 || to >= len(ws) {
		return Migration{}, fmt.Errorf("shard: MigrateRegion(%d, %d): engine has %d shards", from, to, len(ws))
	}
	if from == to {
		return Migration{}, fmt.Errorf("shard: MigrateRegion: donor and receiver are both shard %d", from)
	}
	m := Migration{From: from, To: to, Old: r}
	cycles, err := e.onShard(ws[from], "migrate-export", func(rt *core.Runtime) error {
		rec, err := rt.ExportRegion(r)
		if err != nil {
			return err
		}
		m.Rec, m.Pages = rec, rec.Pages
		mustVerify(rt)
		return nil
	})
	if err != nil {
		return Migration{}, fmt.Errorf("shard: export from shard %d: %w", from, err)
	}
	m.Cycles = cycles
	importInto := func(rt *core.Runtime) error {
		newR, err := rt.ImportRegion(m.Rec)
		if err != nil {
			return err
		}
		m.New = newR
		mustVerify(rt)
		return nil
	}
	cycles, err = e.onShard(ws[to], "migrate-import", importInto)
	if err != nil {
		// Receiver could not take the region; put it back where it was.
		if _, backErr := e.onShard(ws[from], "migrate-rollback", importInto); backErr != nil {
			return Migration{}, fmt.Errorf("shard: import into shard %d failed (%v) and rollback into shard %d failed: %w",
				to, err, from, backErr)
		}
		return Migration{}, fmt.Errorf("shard: import into shard %d (rolled back): %w", to, err)
	}
	m.Cycles += cycles
	b := e.board
	b.mu.Lock()
	b.migrations++
	b.migratedPages += uint64(m.Pages)
	if e.set.metrics != nil {
		metrics.Observe(migrationCycleBounds[:], b.migCycles[:], &b.migCyclesSum, m.Cycles)
	}
	b.mu.Unlock()
	return m, nil
}

// Resize grows the live worker set to n shards. The new shards take the
// next positions, start with empty runtimes, and take part at once in
// placement and in Close's dispatch; a driver that wants state on them
// moves it with MigrateRegion. The worker set never shrinks: n below
// Shards() is an error, and n equal to it does nothing.
//
// Resize must not race Submit — the caller quiesces submission first
// (internal/serve resizes at a phase barrier).
func (e *Engine) Resize(n int) error {
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("shard: Resize after Close")
	}
	ws := e.workers()
	if n < len(ws) {
		return fmt.Errorf("shard: Resize(%d): engine has %d shards and cannot shrink", n, len(ws))
	}
	grown := append([]*worker(nil), ws...)
	for len(grown) < n {
		grown = append(grown, e.newWorker(len(grown)))
	}
	e.ws.Store(&grown)
	for _, w := range grown[len(ws):] {
		e.wg.Add(1)
		go w.loop(e)
	}
	return nil
}
