package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
)

// DefaultPageBatch is the free-page cache batch of every shard runtime: each
// shard requests pages from its simulated OS 64 at a time and serves region
// churn from the cache.
const DefaultPageBatch = 64

// queueCap is the capacity of each shard's stealable and pinned deques.
const queueCap = 32

// Task is one unit of work for the engine. Run receives the executing
// shard's environment and returns a checksum; checksums are summed (a
// commutative fold) into the shard's stats, so any placement of a fixed
// task set — including placements rearranged by work stealing — yields the
// same aggregate checksum, the engine's determinism gate. Summing rather
// than XOR keeps repeated identical tasks from cancelling out.
type Task struct {
	// Name labels the task in failure reports.
	Name string
	// Home, when nonzero, names the task's home shard: the shard at
	// position (Home-1) mod Shards(). Zero places the task round-robin.
	// A home is a soft preference — an idle shard may still steal the
	// task — unless Pin is also set. Home must not be negative.
	Home int
	// Pin makes the task unstealable: it executes on its home shard, and
	// pinned tasks on one shard run in submission order (FIFO). Tasks
	// that touch regions owned by a specific shard's runtime must pin;
	// everything else should leave Pin false so the scheduler can balance
	// load.
	Pin bool
	// Run executes the task on the shard's environment.
	Run func(env appkit.RegionEnv) uint32
	// Done, when non-nil, is the task's completion callback: it runs on the
	// executing shard's goroutine immediately after Run returns (or after a
	// panic in Run is recovered), before the worker pops its next task.
	// Pinned tasks on one shard therefore observe their Done calls in
	// submission (FIFO) order, which is what lets a serving driver thread
	// per-shard bookkeeping through callbacks without locks — see
	// internal/serve. Done must not submit to the engine.
	Done func(res TaskResult)
}

// TaskResult describes one completed task, delivered to Task.Done.
type TaskResult struct {
	// Shard is the shard the task executed on (its home shard unless the
	// task was stolen).
	Shard int
	// Stolen reports whether a sibling shard ran the task.
	Stolen bool
	// Checksum is Run's return value; zero when the task failed.
	Checksum uint32
	// Err is non-nil when Run panicked; the panic was recovered and
	// recorded as a task failure.
	Err error
	// StartCycles and EndCycles bracket the task on the executing shard's
	// simulated clock: EndCycles-StartCycles is the simulated cost of this
	// task, and since a shard runs its tasks serially, consecutive pinned
	// tasks see contiguous, monotone windows.
	StartCycles, EndCycles uint64
}

// Stats is one shard's tally, owned by the shard goroutine until Close.
type Stats struct {
	Shard     int
	Tasks     uint64
	Failures  uint64
	LastError string // first line of the most recent task failure
	Checksum  uint32 // sum of completed task checksums
	Steals    uint64 // tasks this shard stole from siblings' deques
	SimCycles uint64 // simulated cycles charged on this shard
	OSBytes   uint64 // memory the shard requested from its OS

	// Deferred-reclamation tallies (WithDeferredDelete only).
	SweptPages    uint64 // pages the shard's sweeper poisoned
	SweepDebtPeak int    // highest sweep debt the shard ever carried
	// DrainSweepCycles is the simulated cost of the close-time debt drain,
	// the shard's last work: it ran from SimCycles-DrainSweepCycles to
	// SimCycles on the shard's clock.
	DrainSweepCycles uint64
}

// Aggregate is the whole engine's tally after Close, with PerShard in shard
// order.
type Aggregate struct {
	Shards   int
	Tasks    uint64
	Failures uint64
	Checksum uint32 // summed across shards; placement-independent
	Steals   uint64 // tasks that ran away from their home shard
	// MakespanCycles is the modelled completion time of the workload: the
	// maximum simulated cycle count over shards, since shards run
	// concurrently in wall time but each is its own simulated machine.
	MakespanCycles uint64
	// TotalCycles sums simulated cycles over all shards (the work done).
	TotalCycles uint64
	PerShard    []Stats
}

// board is where a metered engine's workers publish their counts for its
// metrics source. After every task, and once more after the close-time
// drain, a worker copies its runtime's spine, its OS counts and its Stats
// into its slot; the source reads the slots, the live queue lengths, the
// migration tallies and, after Close, the aggregate. So a live scrape is
// race-free without a per-event atomic, and since the board holds no
// runtime, a registry that outlives the engine does not keep the shard
// heaps alive. Only that source reads the slots, so an unmetered engine's
// workers have none and publish nothing.
type board struct {
	mu    sync.Mutex
	slots []*slot // by worker id; metered engines only
	agg   *Aggregate

	// migrations and migratedPages count the completed migrations and the
	// pages they moved; migCycles tallies their simulated cost (metered
	// engines only), with its total in migCyclesSum.
	migrations, migratedPages uint64
	migCycles                 [len(migrationCycleBounds) + 1]uint64
	migCyclesSum              uint64
}

// slot is one worker's published counts.
type slot struct {
	label      string // the shard's Prometheus label
	spine      core.Spine
	os         mem.OSCounts
	stats      Stats
	busy       uint64 // shard clock at the end of the last task; drains are not busy time
	dq, pinned *deque
}

// emit is the engine's metrics source.
func (b *board) emit(s *metrics.Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sl := range b.slots {
		sl.spine.Emit(s)
		sl.os.Emit(s)
		s.Counter("regions_shard_tasks_total"+sl.label, sl.stats.Tasks)
		s.Counter("regions_shard_failures_total"+sl.label, sl.stats.Failures)
		s.Counter("regions_shard_busy_cycles_total"+sl.label, sl.busy)
		s.Counter("regions_shard_steals_total"+sl.label, sl.stats.Steals)
		s.Gauge("regions_shard_queue_depth"+sl.label, int64(sl.dq.len()+sl.pinned.len()))
	}
	s.Counter("regions_migrations_total", b.migrations)
	s.Counter("regions_migrated_pages_total", b.migratedPages)
	s.Histogram("regions_migration_cycles", migrationCycleBounds[:], b.migCycles[:], b.migCyclesSum)
	if agg := b.agg; agg != nil {
		s.Gauge("regions_shard_makespan_cycles", int64(agg.MakespanCycles))
		if agg.MakespanCycles > 0 && agg.Shards > 0 {
			util := agg.TotalCycles * 100 / (agg.MakespanCycles * uint64(agg.Shards))
			s.Gauge("regions_shard_utilization_pct", int64(util))
		}
	}
}

type worker struct {
	id      int // position in the worker set; also the metric label and Env name
	env     *appkit.CoreEnv
	dq      *deque // stealable tasks: owner pops back, thieves take front
	pinned  *deque // pinned tasks: FIFO, never stolen
	npinned atomic.Int64
	stats   Stats
	slot    *slot // on the engine's board; nil unless metered

	profEvery int
	lastProf  atomic.Value // *metrics.HeapReport
}

// publish copies w's counts into its slot, if it has one; busy is the
// shard clock at the end of its last task. The runtime's site table is
// copied into a buffer the slot owns, so once the buffer has grown to the
// table publish does not allocate.
func (w *worker) publish(b *board, busy uint64) {
	sl := w.slot
	if sl == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	sites := sl.spine.Sites
	sl.spine = w.env.Runtime().Spine()
	sl.spine.Sites = append(sites[:0], sl.spine.Sites...)
	sl.os = w.env.Space().OSCounts()
	sl.stats, sl.busy = w.stats, busy
}

// Engine distributes tasks over N shard workers with work stealing: Submit
// places a task on its home shard's deque (Task.Home, or round-robin), the
// owner pops its own deque newest-first, and a worker that runs dry takes
// the oldest task from the first non-empty sibling deque. Pinned tasks
// never move. Submit may be called from any goroutine; Close waits for the
// queues to drain and returns the tally.
//
// The worker set only grows: Resize appends fresh shards, so a worker's id
// is its position for the engine's whole life. The live slice is published
// through an atomic pointer, so Submit and the steal sweep always act on a
// consistent snapshot; Resize must not race Submit/Close — the caller
// quiesces submissions first (see Resize).
//
// Sleep/wake protocol: e.stealable counts tasks sitting in stealable
// deques engine-wide and each worker counts its own pinned backlog, both
// maintained by submitters at push time and by workers at pop time. A
// worker that finds nothing re-checks those counters under the engine
// mutex before blocking on the condvar, so a push between "sweep found
// nothing" and "sleep" can never be lost; every push and pop broadcasts,
// which also unblocks submitters waiting on a full deque.
type Engine struct {
	ws        atomic.Pointer[[]*worker]
	rr        atomic.Uint32
	wg        sync.WaitGroup
	set       settings     // resolved options; template for workers Resize adds
	stealable atomic.Int64 // tasks currently in stealable deques, engine-wide

	mu     sync.Mutex
	cond   *sync.Cond
	closed atomic.Bool

	// resizeMu serializes Resize, MigrateRegion, and Close.
	resizeMu sync.Mutex

	board *board
}

// NewEngine starts an engine configured by functional options (see
// options.go), each worker owning an independent safe region runtime with a
// batched free-page cache.
func NewEngine(opts ...Option) *Engine {
	var s settings
	for _, o := range opts {
		o(&s)
	}
	if s.shards < 1 {
		s.shards = 1
	}
	e := &Engine{set: s, board: &board{}}
	e.cond = sync.NewCond(&e.mu)
	if s.metrics != nil {
		s.metrics.AddSource(e.board.emit)
	}
	ws := make([]*worker, s.shards)
	for i := range ws {
		ws[i] = e.newWorker(i)
	}
	// Publish the full slice before starting anyone: a worker's steal sweep
	// reads the whole worker set.
	e.ws.Store(&ws)
	for _, w := range ws {
		e.wg.Add(1)
		go w.loop(e)
	}
	return e
}

// newWorker builds (but does not start) the worker at position id from the
// engine's resolved settings and, on a metered engine, gives it a slot on
// the board.
func (e *Engine) newWorker(id int) *worker {
	rt := core.NewRuntimeOpts(mem.NewSpace(&stats.Counters{}), core.Options{
		Safe:           true,
		PageBatch:      DefaultPageBatch,
		DeferredDelete: e.set.deferredDelete,
		SweepBudget:    e.set.sweepBudget,
		SweepHighWater: e.set.sweepHighWater,
		NoStrPool:      e.set.noStrPool,
	})
	w := &worker{
		id:        id,
		env:       appkit.NewCoreEnv(shardName(id), rt),
		dq:        newDeque(queueCap),
		pinned:    newDeque(queueCap),
		profEvery: e.set.heapProfileEvery,
	}
	w.stats.Shard = id
	if e.set.metrics != nil {
		w.env.Runtime().Meter(e.set.metrics)
		w.slot = &slot{label: fmt.Sprintf(`{shard="%d"}`, id), dq: w.dq, pinned: w.pinned}
		w.publish(e.board, 0)
		e.board.mu.Lock()
		e.board.slots = append(e.board.slots, w.slot)
		e.board.mu.Unlock()
	}
	return w
}

// workers returns the current live worker slice. The slice is immutable
// once published; Resize publishes a new one.
func (e *Engine) workers() []*worker { return *e.ws.Load() }

// Shards returns the number of live workers.
func (e *Engine) Shards() int { return len(e.workers()) }

// Env returns shard i's environment. The worker goroutine owns its
// environment while tasks run, so callers may touch it only before the
// first Submit (to install fault plans, page limits, cleanups), from a task
// pinned to shard i, or after Close (to Verify the drained heap).
func (e *Engine) Env(i int) *appkit.CoreEnv { return e.workers()[i].env }

// home returns t's home position among n shards: Home-1 mod n when Home is
// set, the next round-robin slot otherwise. Homed tasks do not advance the
// round-robin counter.
func (e *Engine) home(t Task, n int) int {
	if t.Home != 0 {
		return (t.Home - 1) % n
	}
	return int((e.rr.Add(1) - 1) % uint32(n))
}

// Submit places t on its home shard's deque (the pinned queue when t.Pin
// is set) and blocks only while that queue is full. A caller with many
// tasks submits them one by one, in order: each shard starts on its first
// task as soon as it is queued, and pinned queues keep submission order.
// Submitting after Close panics, like writing to a closed pipe.
func (e *Engine) Submit(t Task) {
	if e.closed.Load() {
		panic("shard: Submit after Close")
	}
	ws := e.workers()
	e.submitTo(ws[e.home(t, len(ws))], t)
}

// submitTo places t on w's queue (pinned queue when t.Pin is set),
// blocking while the queue is full. The internal entry point for targeting
// a specific worker — migration uses it to pin export/import tasks to a
// donor or receiver regardless of placement.
func (e *Engine) submitTo(w *worker, t Task) {
	q := w.dq
	if t.Pin {
		q = w.pinned
	}
	if !q.push(t) {
		e.mu.Lock()
		for !q.push(t) {
			if e.closed.Load() {
				e.mu.Unlock()
				panic("shard: Submit after Close")
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
	// Counters first, then a broadcast, so sleeping workers re-check and
	// find the task.
	if t.Pin {
		w.npinned.Add(1)
	} else {
		e.stealable.Add(1)
	}
	e.wake()
}

// wake broadcasts the engine condvar under its mutex, so a waiter is either
// already re-checking the counters or blocked and about to be released —
// never in between.
func (e *Engine) wake() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// next returns the next task for w and whether it was stolen. Pop order:
// w's pinned queue first (FIFO, nobody else can run those), then the newest
// task on w's own deque (LIFO keeps the shard working what it was just
// given), then — unless stealing is off — the oldest task of the first
// non-empty sibling deque, sweeping rightward from w's own position. Blocks
// while nothing is runnable; ok=false means the engine is closed and
// drained.
func (e *Engine) next(w *worker) (t Task, stolen, ok bool) {
	for {
		if t, ok := w.pinned.popFront(); ok {
			w.npinned.Add(-1)
			return t, false, true
		}
		if t, ok := w.dq.popBack(); ok {
			e.stealable.Add(-1)
			return t, false, true
		}
		if !e.set.noSteal {
			ws := e.workers()
			for i := 1; i < len(ws); i++ {
				v := ws[(w.id+i)%len(ws)]
				if t, ok := v.dq.popFront(); ok {
					e.stealable.Add(-1)
					return t, true, true
				}
			}
		}
		e.mu.Lock()
		for {
			if w.npinned.Load() > 0 || w.dq.len() > 0 ||
				(!e.set.noSteal && e.stealable.Load() > 0) {
				break
			}
			if e.closed.Load() {
				e.mu.Unlock()
				return Task{}, false, false
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
	}
}

// HeapReports returns the most recent heap profile captured by each live
// shard, in shard order, omitting shards that have not captured one yet.
// Profiles are taken by the shard goroutines (see WithHeapProfileEvery);
// reading them is safe at any time.
func (e *Engine) HeapReports() []*metrics.HeapReport {
	var out []*metrics.HeapReport
	for _, w := range e.workers() {
		if rep, ok := w.lastProf.Load().(*metrics.HeapReport); ok && rep != nil {
			out = append(out, rep)
		}
	}
	return out
}

// captureHeapProfile snapshots the shard runtime's heap into lastProf; a
// heap that fails its structural checks simply yields no new profile.
func (w *worker) captureHeapProfile() {
	rep, err := w.env.Runtime().HeapReport()
	if err != nil || rep == nil {
		return
	}
	rep.Origin = w.env.Name()
	w.lastProf.Store(rep)
}

// Close drains every queue, stops the workers, and returns the aggregated
// stats in shard order.
func (e *Engine) Close() Aggregate {
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	e.mu.Lock()
	e.closed.Store(true)
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	ws := e.workers()
	agg := Aggregate{Shards: len(ws)}
	for _, w := range ws {
		s := w.stats
		agg.Tasks += s.Tasks
		agg.Failures += s.Failures
		agg.Checksum += s.Checksum
		agg.Steals += s.Steals
		agg.TotalCycles += s.SimCycles
		if s.SimCycles > agg.MakespanCycles {
			agg.MakespanCycles = s.SimCycles
		}
		agg.PerShard = append(agg.PerShard, s)
	}
	e.board.mu.Lock()
	e.board.agg = &agg
	e.board.mu.Unlock()
	return agg
}

func (w *worker) loop(e *Engine) {
	defer e.wg.Done()
	var busy uint64
	for {
		t, stolen, ok := e.next(w)
		if !ok {
			break
		}
		// A pop freed a deque slot; unblock any submitter waiting on it.
		e.wake()
		simBefore := w.env.Counters().TotalCycles()
		sum, err := w.runTask(t)
		w.stats.Tasks++
		if stolen {
			w.stats.Steals++
		}
		if err != nil {
			w.stats.Failures++
			w.stats.LastError = err.Error()
			// Pop the frames the failed task left, so the next task starts
			// from an empty shadow stack. Regions it leaked stay allocated,
			// which is safe, just unused.
			for rt := w.env.Runtime(); rt.Depth() > 0; {
				rt.PopFrame()
			}
		} else {
			w.stats.Checksum += sum
		}
		simAfter := w.env.Counters().TotalCycles()
		if t.Done != nil {
			w.runDone(t, TaskResult{
				Shard:       w.id,
				Stolen:      stolen,
				Checksum:    sum,
				Err:         err,
				StartCycles: simBefore,
				EndCycles:   simAfter,
			})
		}
		busy = simAfter
		w.publish(e.board, busy)
		if w.profEvery > 0 && (w.stats.Tasks == 1 || w.stats.Tasks%uint64(w.profEvery) == 0) {
			w.captureHeapProfile()
		}
	}
	if e.set.deferredDelete {
		// Drain remaining sweep debt before the books close, so Close hands
		// back fully poisoned heaps and debt provably returns to zero.
		rt := w.env.Runtime()
		if rt.SweepDebt() > 0 {
			before := w.env.Counters().TotalCycles()
			rt.SweepDrain()
			w.stats.DrainSweepCycles = w.env.Counters().TotalCycles() - before
		}
		w.stats.SweptPages = rt.SweptPages()
		w.stats.SweepDebtPeak = rt.SweepDebtPeak()
	}
	w.stats.SimCycles = w.env.Counters().TotalCycles()
	w.stats.OSBytes = w.env.Space().MappedBytes()
	w.publish(e.board, busy)
	if w.profEvery > 0 {
		w.captureHeapProfile()
	}
}

// runTask executes t, converting a panic (an app assertion, a runtime
// *Fault) into a recorded failure so one bad task cannot take down the
// shard, the behavior a service owes its other tenants.
func (w *worker) runTask(t Task) (sum uint32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: task %q: %v", t.Name, r)
		}
	}()
	return t.Run(w.env), nil
}

// runDone invokes t's completion callback, converting a panic in it into a
// recorded failure rather than letting it kill the worker goroutine.
func (w *worker) runDone(t Task, res TaskResult) {
	defer func() {
		if r := recover(); r != nil {
			w.stats.Failures++
			w.stats.LastError = fmt.Sprintf("shard: done %q: %v", t.Name, r)
		}
	}()
	t.Done(res)
}
