// Package shard is the throughput engine: it runs N independent region
// Systems ("shards") behind a work-distributing driver, the architecture the
// ROADMAP's north star asks for. Each shard owns one simulated address
// space, one safe region runtime, and one batched free-page cache, and
// processes its tasks serially on its own goroutine; shards share nothing,
// so the engine scales with the host's cores while every shard keeps the
// paper's single-threaded fast paths (bump allocation, dense page-index
// lookup) untouched.
//
// Placement is either round-robin (throughput) or homed: pinned tasks
// submitted with the same Task.Home always execute on the same shard, so a
// pipeline of tasks can share regions created by its predecessors without
// any cross-shard synchronization — the sharded analogue of the paper's
// single-machine model.
package shard

import (
	"fmt"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/stats"
)

// Ptr is a simulated heap address.
type Ptr = mem.Addr

// Env is one shard's region environment. It implements appkit.RegionEnv, so
// the six benchmark applications (and anything else written against the
// appkit contract) run on a shard unchanged. Unlike the per-experiment
// appkit environments, a shard Env is long-lived: its global storage grows
// segment by segment through the runtime's own allocator instead of a fixed
// reserved block, so an unbounded stream of tasks can keep allocating
// globals without exhausting anything.
type Env struct {
	name string
	sp   *mem.Space
	rt   *core.Runtime
}

// NewEnv builds a shard environment with the given core options. PageBatch
// in opts controls the shard's free-page cache; Safe is honored as given
// (engine shards are always safe).
func NewEnv(name string, opts core.Options) *Env {
	c := &stats.Counters{}
	sp := mem.NewSpace(c)
	return &Env{name: name, sp: sp, rt: core.NewRuntimeOpts(sp, opts)}
}

// Runtime exposes the shard's region runtime (for Verify in tests and for
// diagnostics; task code should stay on the RegionEnv contract).
func (e *Env) Runtime() *core.Runtime { return e.rt }

// Name returns the shard's diagnostic name.
func (e *Env) Name() string { return e.name }

// Space returns the shard's simulated address space.
func (e *Env) Space() *mem.Space { return e.sp }

// Counters returns the shard's statistics sink.
func (e *Env) Counters() *stats.Counters { return e.sp.Counters() }

// PushFrame enters an activation with n region-pointer slots.
func (e *Env) PushFrame(n int) appkit.Frame { return e.rt.PushFrame(n) }

// PopFrame leaves the innermost activation.
func (e *Env) PopFrame() { e.rt.PopFrame() }

// Safepoint is a no-op: regions need no collection pauses.
func (e *Env) Safepoint() {}

// Finalize folds still-live regions into the statistics.
func (e *Env) Finalize() { e.rt.FinalizeStats() }

// Safe reports whether the shard maintains reference counts.
func (e *Env) Safe() bool { return e.rt.Safe() }

// NewRegion creates an empty region on this shard.
func (e *Env) NewRegion() appkit.Region { return e.rt.NewRegion() }

// DeleteRegion attempts to delete r.
func (e *Env) DeleteRegion(r appkit.Region) bool {
	return e.rt.DeleteRegion(r.(*core.Region))
}

// Ralloc allocates size bytes of cleared, scanned memory in r.
func (e *Env) Ralloc(r appkit.Region, size int, cln appkit.CleanupID) Ptr {
	return e.rt.Ralloc(r.(*core.Region), size, cln)
}

// RarrayAlloc allocates a cleared array in r.
func (e *Env) RarrayAlloc(r appkit.Region, n, elemSize int, cln appkit.CleanupID) Ptr {
	return e.rt.RarrayAlloc(r.(*core.Region), n, elemSize, cln)
}

// RstrAlloc allocates pointer-free memory in r.
func (e *Env) RstrAlloc(r appkit.Region, size int) Ptr {
	return e.rt.RstrAlloc(r.(*core.Region), size)
}

// RstrFree retires one RstrAlloc block for reuse within r.
func (e *Env) RstrFree(r appkit.Region, p Ptr, size int) {
	e.rt.RstrFree(r.(*core.Region), p, size)
}

// RegisterCleanup registers an environment-level cleanup function.
func (e *Env) RegisterCleanup(name string, fn appkit.CleanupFunc) appkit.CleanupID {
	return e.rt.RegisterCleanup(name, func(_ *core.Runtime, obj Ptr) int {
		return fn(e, obj)
	})
}

// SizeCleanup returns a cleanup for pointer-free objects of a fixed size.
func (e *Env) SizeCleanup(size int) appkit.CleanupID { return e.rt.SizeCleanup(size) }

// Destroy drops one counted reference from a dying object.
func (e *Env) Destroy(p Ptr) { e.rt.Destroy(p) }

// StorePtr writes a region pointer through the region-write barrier.
func (e *Env) StorePtr(slot, val Ptr) { e.rt.StorePtr(slot, val) }

// StoreGlobalPtr writes a region pointer through the global-write barrier.
func (e *Env) StoreGlobalPtr(slot, val Ptr) { e.rt.StoreGlobalPtr(slot, val) }

// AllocGlobals reserves nwords words of global storage. Segments grow on
// demand, so repeated tasks never exhaust a fixed reservation.
func (e *Env) AllocGlobals(nwords int) Ptr { return e.rt.AllocGlobals(nwords) }

// reset clears shard state a failed task may have left behind: any frames
// still on the shadow stack are popped so the next task starts from an
// empty stack. Regions the task leaked stay allocated (their pages are
// reclaimed only by their owner's deletion), which is safe — just unused.
func (e *Env) reset() {
	for e.rt.Depth() > 0 {
		e.rt.PopFrame()
	}
}

var _ appkit.RegionEnv = (*Env)(nil)

func shardName(i int) string { return fmt.Sprintf("shard%d", i) }
