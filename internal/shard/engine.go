package shard

import (
	"fmt"
	"slices"
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

// queueCap is the capacity of each shard's FIFO: a submitter runs up to
// this many pinned tasks ahead of a shard before Submit blocks, enough to
// keep the shard fed (internal/serve sizes its session feeds above it).
const queueCap = 32

// Task is one unit of work for the engine. Run receives the executing
// shard's environment and returns a checksum; checksums are summed (a
// commutative fold) into the shard's stats, so any placement of a fixed
// task set — including placements rearranged by work stealing — yields the
// same aggregate checksum. Summing rather than XOR keeps repeated identical
// tasks from cancelling out.
type Task struct {
	// Name labels the task in failure reports.
	Name string
	// Home, when nonzero, names the task's home shard: the shard at
	// position (Home-1) mod Shards(). Zero places the task round-robin.
	// A home is a soft preference — Close may hand the task to a sibling —
	// unless Pin is also set. Home must not be negative.
	Home int
	// Pin makes the task run on its home shard as soon as the shard
	// reaches it, and pinned tasks on one shard run in submission order
	// (FIFO). Tasks that touch regions owned by a specific shard's runtime
	// must pin. An unpinned task waits for Close, which balances the held
	// batch over the shards (see Engine).
	Pin bool
	// Run executes the task on the shard's environment.
	Run func(env appkit.RegionEnv) uint32
	// Done, when non-nil, is the task's completion callback: it runs on the
	// executing shard's goroutine immediately after Run returns (or after a
	// panic in Run is recovered), before the worker takes its next task.
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
	// Stolen reports whether Close handed the task to a sibling of its
	// home shard.
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
	Steals    uint64 // held tasks this shard took from a sibling at Close
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
	// maximum simulated cycle count over shards, since each shard is its
	// own simulated machine and the machines run concurrently.
	MakespanCycles uint64
	// TotalCycles sums simulated cycles over all shards (the work done).
	TotalCycles uint64
	PerShard    []Stats
}

// board is the engine state its metrics source reads. After every task,
// and once more after the close-time drain, a metered engine's worker
// copies its runtime's spine, its OS counts and its Stats into its slot;
// the source reads the slots, the queue lengths, the migration tallies
// and, after Close, the aggregate. So a live scrape is race-free without a
// per-event atomic, and since the board holds no runtime, a registry that
// outlives the engine does not keep the shard heaps alive. Only that
// source reads the slots, so an unmetered engine's workers have none and
// publish nothing.
type board struct {
	mu    sync.Mutex
	slots []*slot // by worker id; metered engines only
	agg   *Aggregate

	// held is each shard's unpinned backlog, by worker id: the tasks
	// Submit homed there, oldest first, waiting for Close to dispatch them.
	held [][]Task

	// migrations and migratedPages count the completed migrations and the
	// pages they moved; migCycles tallies their simulated cost (metered
	// engines only), with its total in migCyclesSum.
	migrations, migratedPages uint64
	migCycles                 [len(migrationCycleBounds) + 1]uint64
	migCyclesSum              uint64
}

// slot is one worker's published counts.
type slot struct {
	label string // the shard's Prometheus label
	spine core.Spine
	os    mem.OSCounts
	stats Stats
	busy  uint64   // shard clock at the end of the last task; drains are not busy time
	q     chan job // the worker's FIFO
}

// emit is the engine's metrics source.
func (b *board) emit(s *metrics.Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, sl := range b.slots {
		sl.spine.Emit(s)
		sl.os.Emit(s)
		s.Counter("regions_shard_tasks_total"+sl.label, sl.stats.Tasks)
		s.Counter("regions_shard_failures_total"+sl.label, sl.stats.Failures)
		s.Counter("regions_shard_busy_cycles_total"+sl.label, sl.busy)
		s.Counter("regions_shard_steals_total"+sl.label, sl.stats.Steals)
		s.Gauge("regions_shard_queue_depth"+sl.label, int64(len(sl.q)+len(b.held[i])))
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
	id    int // position in the worker set; also the metric label and Env name
	env   *appkit.CoreEnv
	q     chan job // pinned tasks in submission order, then Close's dispatches
	stats Stats
	slot  *slot // on the engine's board; nil unless metered

	profEvery int
	lastProf  atomic.Value // *metrics.HeapReport
}

// job is one entry of a worker's FIFO. Close's dispatches carry a reply,
// on which the worker sends its shard clock once the job is done; a
// barrier runs nothing and only replies.
type job struct {
	Task
	stolen, barrier bool
	reply           chan<- uint64
}

// publish copies w's counts into its slot, if it has one; busy is the
// shard clock at the end of its last task. The copy is publishSlot's, whose
// frame holds a whole Spine, so an unmetered worker's stack never makes
// room for it.
func (w *worker) publish(b *board, busy uint64) {
	if w.slot != nil {
		w.publishSlot(b, busy)
	}
}

// publishSlot is publish on a metered worker. The runtime's site table is
// copied into a buffer the slot owns, so once the buffer has grown to the
// table publishSlot does not allocate.
func (w *worker) publishSlot(b *board, busy uint64) {
	sl := w.slot
	b.mu.Lock()
	defer b.mu.Unlock()
	sites := sl.spine.Sites
	sl.spine = w.env.Runtime().Spine()
	sl.spine.Sites = append(sites[:0], sl.spine.Sites...)
	sl.os = w.env.Space().OSCounts()
	sl.stats, sl.busy = w.stats, busy
}

// Engine distributes tasks over N shard workers, each running its tasks
// serially on its own goroutine. A pinned task goes straight onto its home
// shard's FIFO, and Submit blocks only while that FIFO is full, so every
// shard starts on its first pinned task as soon as it is submitted. An
// unpinned task is held on its home shard (Task.Home, or round-robin)
// until Close. Close lets every pinned backlog drain, then dispatches the
// held batch by the shards' simulated clocks: the shard with the lowest
// clock (the lower id on a tie) runs its own newest held task, or else
// steals the oldest held task of the first sibling, sweeping rightward,
// that holds one. A task may cost no cycles, so each one finishes before
// the next decision reads the clocks: an unpinned batch runs one task at
// a time on the host, and its placement, per-shard cycles and steals are
// a function of the submitted sequence alone.
//
// The worker set only grows: Resize appends fresh shards, so a worker's id
// is its position for the engine's whole life. The live slice is published
// through an atomic pointer, so Submit always acts on a consistent
// snapshot; Resize must not race Submit/Close — the caller quiesces
// submissions first (see Resize).
type Engine struct {
	ws     atomic.Pointer[[]*worker]
	rr     atomic.Uint32
	wg     sync.WaitGroup
	set    settings // resolved options; template for workers Resize adds
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
	if s.metrics != nil {
		s.metrics.AddSource(e.board.emit)
	}
	ws := make([]*worker, s.shards)
	for i := range ws {
		ws[i] = e.newWorker(i)
	}
	e.ws.Store(&ws)
	for _, w := range ws {
		e.wg.Add(1)
		go w.loop(e)
	}
	return e
}

// newWorker builds (but does not start) the worker at position id from the
// engine's resolved settings, gives it an empty held list and, on a
// metered engine, a slot on the board.
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
		q:         make(chan job, queueCap),
		profEvery: e.set.heapProfileEvery,
	}
	w.stats.Shard = id
	if e.set.metrics != nil {
		w.env.Runtime().Meter(e.set.metrics)
		w.slot = &slot{label: fmt.Sprintf(`{shard="%d"}`, id), q: w.q}
		w.publish(e.board, 0)
	}
	e.board.mu.Lock()
	e.board.held = append(e.board.held, nil)
	if w.slot != nil {
		e.board.slots = append(e.board.slots, w.slot)
	}
	e.board.mu.Unlock()
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

// Submit places t on its home shard: a pinned task on the shard's FIFO,
// blocking only while the FIFO is full; an unpinned one on the shard's
// held list, for Close to dispatch. A caller with many tasks submits them
// one by one, in order: each shard starts on its first pinned task as soon
// as it is queued, and FIFOs keep submission order. Submitting after Close
// panics, like writing to a closed pipe.
func (e *Engine) Submit(t Task) {
	if e.closed.Load() {
		panic("shard: Submit after Close")
	}
	ws := e.workers()
	h := e.home(t, len(ws))
	if t.Pin {
		ws[h].q <- job{Task: t}
		return
	}
	b := e.board
	b.mu.Lock()
	b.held[h] = append(b.held[h], t)
	b.mu.Unlock()
}

// dispatch runs the held batch by the rule in Engine's comment, one task
// at a time, once every pinned backlog has drained: a barrier on each
// FIFO reads the shard's clock, and each dispatched task replies with it.
// With nothing held (serving pins every task) it returns at once.
func (e *Engine) dispatch(ws []*worker) {
	e.board.mu.Lock()
	idle := !slices.ContainsFunc(e.board.held, func(h []Task) bool { return len(h) > 0 })
	e.board.mu.Unlock()
	if idle {
		return
	}
	reply := make(chan uint64)
	clock := make([]uint64, len(ws))
	for i, w := range ws {
		w.q <- job{barrier: true, reply: reply}
		clock[i] = <-reply
	}
	for {
		s := 0
		for i := range clock {
			if clock[i] < clock[s] {
				s = i
			}
		}
		t, from, ok := e.board.take(s)
		if !ok {
			return
		}
		ws[s].q <- job{Task: t, stolen: from != s, reply: reply}
		clock[s] = <-reply
	}
}

// take removes the task shard s runs next from the held lists and names
// the shard that held it: s's own newest task, else the oldest task of the
// first non-empty sibling to its right, wrapping. ok=false means nothing
// is held anywhere.
func (b *board) take(s int) (t Task, from int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.held {
		v := (s + i) % len(b.held)
		if h := b.held[v]; len(h) > 0 {
			k := 0
			if v == s {
				k = len(h) - 1
			}
			t = h[k]
			b.held[v] = slices.Delete(h, k, k+1) // clears the vacated entry
			return t, v, true
		}
	}
	return Task{}, 0, false
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

// Close drains every pinned backlog, dispatches the held tasks, stops the
// workers, and returns the aggregated stats in shard order.
func (e *Engine) Close() Aggregate {
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	ws := e.workers()
	if !e.closed.Swap(true) {
		e.dispatch(ws)
		for _, w := range ws {
			close(w.q)
		}
		e.wg.Wait()
	}
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
	for j := range w.q {
		if !j.barrier {
			busy = w.run(e.board, j.Task, j.stolen)
		}
		if j.reply != nil {
			j.reply <- w.env.Counters().TotalCycles()
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

// run executes t on w, tallies and publishes it, and returns the shard
// clock at the task's end.
func (w *worker) run(b *board, t Task, stolen bool) uint64 {
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
	w.publish(b, simAfter)
	if w.profEvery > 0 && (w.stats.Tasks == 1 || w.stats.Tasks%uint64(w.profEvery) == 0) {
		w.captureHeapProfile()
	}
	return simAfter
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
