package shard

import "regions/internal/metrics"

// This file is the engine's construction surface: functional options over a
// private settings struct, one option per knob a caller actually turns —
// shard.NewEngine(shard.WithShards(8), shard.WithDeferredDelete(0, 0)).

// settings is the resolved engine configuration NewEngine builds from its
// options.
type settings struct {
	shards           int
	metrics          *metrics.Registry
	heapProfileEvery int
	deferredDelete   bool
	sweepBudget      int
	sweepHighWater   int
	noStrPool        bool
}

// Option configures an Engine at construction.
type Option func(*settings)

// WithShards sets the initial worker count (default 1; values below 1
// become 1). Engine.Resize can grow it later.
func WithShards(n int) Option { return func(s *settings) { s.shards = n } }

// WithMetrics registers the engine with reg. The core and mem series,
// histograms and allocation sites included, sum every shard's counts as
// of its last completed task (each worker of a metered engine publishes a
// copy after every task, so a scrape from any goroutine is safe);
// per-shard labeled series report tasks, failures, busy simulated cycles,
// steals and queue depth (the tasks Submit holds for Close), plus the
// engine's migration counters and histogram, and once the engine has
// closed its makespan and utilization gauges. Nil attaches nothing, and
// workers then publish nothing.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *settings) { s.metrics = reg }
}

// WithHeapProfileEvery makes each shard capture a heap profile of its
// runtime every n completed tasks (plus after its first task and once at
// drain, so short runs still expose one), exposed via HeapReports — the
// data behind regionbench's /heap endpoint. Capture runs right after the
// shard's task, on the same goroutine, so it is safe without locking the
// runtime. Zero disables it.
func WithHeapProfileEvery(n int) Option {
	return func(s *settings) { s.heapProfileEvery = n }
}

// WithDeferredDelete runs every shard runtime with core.Options.
// DeferredDelete: region deletion detaches pages and the per-page
// reclamation runs in bounded sweep slices — via the allocation tax above
// the high-water mark, wherever the driver calls SweepSlice, and in a final
// drain when the engine closes (recorded per shard as
// Stats.DrainSweepCycles). budget and highWater forward to the core
// options' SweepBudget and SweepHighWater; zero keeps the core defaults.
func WithDeferredDelete(budget, highWater int) Option {
	return func(s *settings) {
		s.deferredDelete = true
		s.sweepBudget = budget
		s.sweepHighWater = highWater
	}
}

// WithNoStrPool disables the pooled string allocator's free lists on every
// shard runtime (core.Options.NoStrPool): RstrFree becomes accounting-only
// and every RstrAlloc bumps, for A/B comparison against the pooled default.
func WithNoStrPool() Option { return func(s *settings) { s.noStrPool = true } }
