// Package serve is the multi-tenant serving simulator: the server-shaped
// workload the ROADMAP's "millions of users" north star asks for, built on
// the shard engine. A seeded open-loop Poisson arrival process (with
// optional burst phases) feeds thousands of sessions onto N shards; each
// session owns one or more regions for a request lifetime — parse into a
// request region, work in a second region that outlives it (the non-lexical
// lifetime shape), delete both — with its allocation mix drawn from the six
// benchmark apps' per-site censuses (see profiles.go).
//
// Latency is modelled, not wall-clock: a shard is one simulated machine
// serving its sessions in FIFO order, so a session's latency is its queue
// wait plus its measured service time, both in simulated cycles. The model
// is a per-shard single-server queue driven by real service times: start =
// max(arrival, previous completion), completion = start + the simulated
// cycles the session actually consumed on the shard's runtime. That makes
// every percentile deterministic for a (config, seed) pair — the serving
// analogue of the batch harness's checksum gate.
//
// Overload is a first-class outcome, not a crash: when the modelled queue
// is full a new session is shed with a typed ErrOverload before it touches
// the runtime, and when the simulated OS refuses pages mid-request
// (SetPageLimit, FaultPlan — PR 2's failure model recast as a backpressure
// story) the session aborts gracefully, releases its regions, and counts as
// an OOM shed. Admitted/shed/queued counters, a queue-depth gauge per
// shard, and the latency histogram are exported through the standard
// metrics registry, so `regionserve -metrics-addr` serves them at /metrics
// live: each shard publishes its tally after every completion, and the
// registry reads the published tallies when scraped. docs/SERVING.md is the
// full story; cmd/regionserve the CLI.
package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/shard"
	"regions/internal/trace"
)

// ErrOverload is the sentinel every shed session's error wraps: the server
// refused or aborted the request to protect the tenants it already
// admitted. Test with errors.Is; OOM-caused sheds also match
// mem.ErrOutOfMemory.
var ErrOverload = errors.New("serve: overloaded")

// OverloadError describes one shed session. It wraps ErrOverload, and — for
// sessions aborted by a refused page mapping — the runtime's *Fault chain,
// so errors.Is(err, mem.ErrOutOfMemory) distinguishes OOM sheds from
// queue-full sheds.
type OverloadError struct {
	Session int    // session id (arrival order)
	Shard   int    // home shard
	Reason  string // "queue full" or "out of memory"
	Err     error  // underlying cause for OOM sheds, nil for queue sheds
}

// Error implements error.
func (e *OverloadError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("serve: session %d shed on shard %d: %s: %v",
			e.Session, e.Shard, e.Reason, e.Err)
	}
	return fmt.Sprintf("serve: session %d shed on shard %d: %s",
		e.Session, e.Shard, e.Reason)
}

// Unwrap makes errors.Is see both ErrOverload and the underlying cause.
func (e *OverloadError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrOverload, e.Err}
	}
	return []error{ErrOverload}
}

// Config sizes a serving run. The zero value of every optional field picks
// the documented default; a Rate, BurstFactor or ResizeAfter that is NaN or
// infinite is an error from Run, as is a negative rate, factor or count.
type Config struct {
	// Sessions is the number of requests to offer (required, > 0).
	Sessions int
	// Seed seeds the arrival process, profile draws, and session weights.
	Seed int64
	// Shards is the number of independent runtimes serving (default 4).
	Shards int
	// Rate is the offered load: mean arrivals per simulated Mcycle across
	// the whole system (default 700, roughly 0.7 utilization on 4 shards
	// with the default profile mix — enough contention that queueing is
	// visible in the percentiles while the SLO still passes).
	Rate float64
	// BurstEvery/BurstLen/BurstFactor overlay burst phases on the arrival
	// process: during the first BurstLen cycles of every BurstEvery-cycle
	// period the rate is multiplied by BurstFactor (default 4; bursts are
	// off while BurstEvery is 0).
	BurstEvery  uint64
	BurstLen    uint64
	BurstFactor float64
	// MaxQueue is the modelled per-shard queue cap: a session arriving
	// while MaxQueue sessions are queued or in service on its shard is
	// shed (default 64).
	MaxQueue int
	// SLOP99 is the p99 latency target in simulated cycles that the run's
	// pass/fail line is judged against (default 1,000,000; the SLO is
	// reported, never enforced).
	SLOP99 uint64
	// PageLimit, when > 0, caps each shard's simulated OS at that many 4 KB
	// pages — the overload lever. FaultPlan, when non-nil, installs a copy
	// of the injected-failure schedule on every shard.
	PageLimit int
	FaultPlan *mem.FaultPlan
	// Profile, when non-empty, restricts every session to the named profile
	// instead of the weighted six-app mix — e.g. "bulk", the large-region
	// archetype the deferred-reclamation A/B benchmark serves. Unknown
	// names are an error from Run.
	Profile string
	// DeferredDelete serves with deferred region reclamation
	// (core.Options.DeferredDelete): a session's deletes detach in O(page
	// lists) and the per-page poisoning runs in bounded sweep slices during
	// the shard's modelled idle gaps — the cycles between one session's
	// completion and the next arrival — plus the allocation tax above the
	// high-water mark. Sweep slices never extend a session's service time
	// (serveOne measures and complete subtracts them), which is exactly the
	// tail-latency claim the mode exists to test. The allocation address
	// stream, and therefore Result.Checksum, is bit-identical to a
	// synchronous run with the same seed.
	DeferredDelete bool
	// SweepBudget and SweepHighWater tune deferred reclamation (pages per
	// slice, debt level that triggers the allocation tax); zero keeps the
	// core defaults. Meaningless unless DeferredDelete is set.
	SweepBudget    int
	SweepHighWater int
	// NoStrPool serves with the pooled string allocator's free lists
	// disabled on every shard (core.Options.NoStrPool) — the control arm of
	// the string-pool A/B. On recycling profiles ("strheavy") checksums are
	// content sums, so a pooled run and its NoStrPool control must agree
	// bit for bit while their cycle counts and OS traffic diverge.
	NoStrPool bool
	// Tenants, when > 0, turns on tenant mode: each session belongs to one
	// of this many tenants (drawn with a triangular skew — tenant 0 hottest)
	// and is homed on its tenant's shard instead of round-robin, and every
	// session appends to its tenant's long-lived state region. Tenant mode
	// switches Result.Checksum to content sums (pure functions of each
	// session, not allocation addresses), because tenant migration and
	// resize legitimately change placement: the checksum must stay
	// bit-identical across a resize A/B, which address sums cannot do.
	Tenants int
	// ResizeTo, when > 0, grows the engine live from Shards to ResizeTo
	// shards at a mid-run barrier, migrates every tenant region onto a
	// weight-balanced placement over the grown engine (see tenantHomes),
	// and serves the rest of the schedule there. Requires Tenants > 0 and
	// ResizeTo > Shards.
	ResizeTo int
	// ResizeAfter is the fraction of sessions served before the resize
	// barrier (default 0.5). Only meaningful with ResizeTo.
	ResizeAfter float64
	// Metrics, when non-nil, receives the serve series — the regions_serve_*
	// counters and queue-depth gauges, the latency histogram, and with Spans
	// the per-phase histograms — and attaches every shard runtime, as
	// shard.WithMetrics does. Nil meters nothing; Result never reads it.
	Metrics *metrics.Registry
	// Spans turns on request-level span accounting: every admitted session
	// keeps one phase record of its critical path — queue wait, parse, work,
	// delete, and re-attributed sweep time (see spans.go) — and every
	// completed session's record is observed into the
	// regions_serve_phase_cycles{phase=...} histograms and folded into
	// Result.Spans, which is exact. Run fails if a request's phases do not
	// sum exactly to its end-to-end latency. Host-side only: cycle counts
	// and checksums are bit-identical with Spans on or off.
	Spans bool
	// SpanTracer, when non-nil, receives the run's span events (implies
	// Spans) for export — regionserve -explain -chrome renders them as a
	// Chrome timeline. Run writes every span once, after the engine has
	// closed, from its records: each completed request's phases, each
	// migration's export and import window and each close-time drain. It
	// writes at most 24 events per session, 4 per migration and 2 per
	// shard, and checks a ring that dropped nothing against the records.
	// Result.Spans never reads the ring. The tracer must be fresh and
	// clock-less: the spans carry their own cycle stamps.
	SpanTracer *trace.Tracer
	// TopSlow is how many slowest requests Result.Spans lists with their
	// phase breakdowns (default 5; meaningful only with Spans).
	TopSlow int
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Rate == 0 {
		cfg.Rate = 700
	}
	if cfg.BurstFactor == 0 {
		cfg.BurstFactor = 4
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.SLOP99 == 0 {
		cfg.SLOP99 = 1_000_000
	}
	if cfg.ResizeAfter == 0 {
		cfg.ResizeAfter = 0.5
	}
	if cfg.SpanTracer != nil {
		cfg.Spans = true
	}
	if cfg.TopSlow == 0 {
		cfg.TopSlow = 5
	}
	return cfg
}

// ShardStats is one shard's serving tally.
type ShardStats struct {
	Shard     int    `json:"shard"`
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Queued    uint64 `json:"queued"`
	ShedQueue uint64 `json:"shedQueue"`
	ShedOOM   uint64 `json:"shedOOM"`
	MaxDepth  int    `json:"maxQueueDepth"`
	// BusyUntilCycles is the shard's modelled clock at drain — the
	// completion time of its last admitted session.
	BusyUntilCycles uint64 `json:"busyUntilCycles"`
}

// Result is one serving run's outcome. Every field is deterministic for a
// (Config, Seed) pair — there is deliberately no wall-clock field.
type Result struct {
	Sessions int     `json:"sessions"`
	Shards   int     `json:"shards"`
	Seed     int64   `json:"seed"`
	Rate     float64 `json:"ratePerMcycle"`

	// Admitted counts sessions that entered service; Completed the subset
	// that finished (Admitted - ShedOOM). Queued counts admitted sessions
	// whose modelled queue wait was nonzero. ShedQueue were rejected at
	// admission, ShedOOM aborted mid-request by a refused page mapping.
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	Queued    uint64 `json:"queued"`
	ShedQueue uint64 `json:"shedQueue"`
	ShedOOM   uint64 `json:"shedOOM"`
	// Leaked counts regions a session failed to delete at abort (safe —
	// the safety machinery refused — but a reclamation debt worth seeing).
	Leaked uint64 `json:"leaked,omitempty"`

	// Latency order statistics over completed sessions, in simulated
	// cycles: each quantile is exact, the ceil(q·n)-th smallest latency
	// (trace.QuantileExact's rule), MaxCycles is the slowest request's
	// latency, and Mean is the integer mean. Run fails unless
	// P50 <= P99 <= P999 <= MaxCycles.
	P50       uint64 `json:"p50Cycles"`
	P99       uint64 `json:"p99Cycles"`
	P999      uint64 `json:"p999Cycles"`
	MaxCycles uint64 `json:"maxCycles"`
	Mean      uint64 `json:"meanCycles"`
	// MaxQueueDepth is the deepest modelled queue any shard saw.
	MaxQueueDepth int `json:"maxQueueDepth"`
	// MakespanCycles is the modelled drain time: the maximum shard clock.
	MakespanCycles uint64 `json:"makespanCycles"`
	// Checksum sums every completed session's checksum — the determinism
	// gate, exactly as in the batch engine.
	Checksum uint32 `json:"checksum"`
	// MappedBytes sums every shard's simulated-OS traffic at drain — the
	// page-map pressure the string pool exists to relieve on recycling
	// profiles.
	MappedBytes uint64 `json:"mappedBytes"`

	// Pooled-string-allocator tallies summed over shards at drain: bump
	// allocations, pool hits, above-ceiling allocations, and explicit
	// frees. StrReuseRatio is StrReuse / (StrNew + StrReuse); all zero on
	// profiles that never free.
	StrNew        uint64  `json:"strNew,omitempty"`
	StrReuse      uint64  `json:"strReuse,omitempty"`
	StrBig        uint64  `json:"strBig,omitempty"`
	StrFreed      uint64  `json:"strFreed,omitempty"`
	StrReuseRatio float64 `json:"strReuseRatio,omitempty"`

	SLOTarget uint64 `json:"sloTargetP99"`
	SLOPass   bool   `json:"sloPass"`

	// Deferred-reclamation outcome (Config.DeferredDelete only).
	// SweptPages counts pages the incremental sweepers poisoned across all
	// shards; SweepDebtPeakPages is the highest debt any shard carried —
	// the boundedness gate. ReclamationLagCycles is the worst per-shard
	// drain at Close: the simulated cycles of debt still owed when the last
	// session finished, i.e. how far reclamation trailed the workload.
	DeferredDelete       bool   `json:"deferredDelete,omitempty"`
	SweptPages           uint64 `json:"sweptPages,omitempty"`
	SweepDebtPeakPages   int    `json:"sweepDebtPeakPages,omitempty"`
	ReclamationLagCycles uint64 `json:"reclamationLagCycles,omitempty"`

	// Tenant/resize outcome (Config.Tenants / Config.ResizeTo only).
	// TenantChecksum sums a content digest (core.ContentChecksum) over
	// every tenant region at drain. It is placement- and shard-independent
	// by construction, so a resize run and its no-resize control must agree
	// on it bit for bit — the serving half of the migration determinism
	// gate. Migrations and MigratedPages count the barrier's region moves.
	Tenants        int    `json:"tenants,omitempty"`
	ResizeTo       int    `json:"resizeTo,omitempty"`
	TenantChecksum uint32 `json:"tenantChecksum,omitempty"`
	Migrations     uint64 `json:"migrations,omitempty"`
	MigratedPages  uint64 `json:"migratedPages,omitempty"`
	// Phase busy-cycle balance (ResizeTo only): max/min simulated busy
	// cycles across the shards serving each phase — phase 1 runs on Shards
	// shards, phase 2 on ResizeTo. The resize claim is the phase-2 ratio
	// dropping toward 1.0 as migration spreads the hot tenants out.
	Phase1BusyRatio float64 `json:"phase1BusyRatio,omitempty"`
	Phase2BusyRatio float64 `json:"phase2BusyRatio,omitempty"`
	// SweepDebtPeakPhases is the max sweep-debt peak across shards per
	// phase (deferred resize runs only): the barrier resets each shard's
	// peak via ResetSweepDebtPeak, giving each phase its own A/B window.
	SweepDebtPeakPhases []int `json:"sweepDebtPeakPhases,omitempty"`

	// Spans is the request-level attribution report (Config.Spans only):
	// per-phase quantiles and the top-K slowest requests, conservation-
	// checked. See SpanReport for the JSON schema.
	Spans *SpanReport `json:"spans,omitempty"`

	PerShard []ShardStats `json:"perShard"`

	// FirstOverload is the earliest shed session's error (by session id),
	// nil when nothing was shed. Excluded from JSON so reports stay
	// diffable.
	FirstOverload error `json:"-"`
}

// latencyBounds are the fixed histogram buckets for request latency and
// phases: power-of-two simulated-cycle bounds from 2 Kcycles to 2 Gcycles.
var latencyBounds = func() (b [21]uint64) {
	for i := range b {
		b[i] = 1 << (11 + i)
	}
	return b
}()

// hist is one shard's histogram over latencyBounds: a metrics.Observe
// tally and its total.
type hist struct {
	buckets [len(latencyBounds) + 1]uint64
	sum     uint64
}

func (h *hist) observe(v uint64) { metrics.Observe(latencyBounds[:], h.buckets[:], &h.sum, v) }

// server is one serving run: its configuration, the board its shards
// publish their tallies to when metered, the sessions' latencies and phase
// records, the engine and per-shard states it drives, and, in tenant mode,
// the tenant table.
type server struct {
	cfg   Config
	board *board

	// lat is every session's latency, indexed by session id: account writes
	// a completed session's, and shedMark for a shed one. recs is every
	// session's phase record, indexed the same way, under Config.Spans and
	// nil otherwise. Each index is written by one shard's goroutine, and
	// read by report after every session has completed.
	lat  []uint64
	recs []phaseRecord

	// content switches session checksums from allocation addresses to pure
	// functions of the session (tenant mode only; see Config.Tenants).
	content bool
	tenants []*tenantState

	eng    *shard.Engine
	states []*shardState // indexed by shard position

	// Resize barrier readings (Config.ResizeTo only): each shard's busy
	// cycles and the highest sweep-debt peak when phase 1 had drained.
	phase1Busy      []uint64
	phase1SweepPeak int
	// track holds the spans of no request that the span export writes:
	// each migration's export and import, then each close-time drain.
	track []trackSpan
}

// Tenant-state layout: each session appends tenantNodes*weight scanned
// nodes of tenantNodeSize bytes to its tenant's region, word 0 a small-int
// payload, word 1 a sameregion link to the previous node.
const (
	tenantSite     = "tenant/state"
	tenantNodeSize = 16
	tenantNodes    = 3
)

// tenantState is one tenant's long-lived region and host-held chain head.
// Its region and head are touched only by sessions on the tenant's home
// shard while the engine serves, and only by the barrier (engine idle)
// when it migrates; home changes only at the barrier, so every shard's
// goroutine may read it while serving. Like shardState, it needs no lock.
// The head is deliberately held host-side and never in a frame: the
// region's counted reference count stays zero between requests, which is
// exactly the quiescence ExportRegion demands when the barrier moves the
// tenant.
type tenantState struct {
	r    *core.Region
	head core.Ptr
	home int // current home shard position
}

// shardState is one shard's task, modelled queue and tally. It is touched
// only by the shard's goroutine, which serves the shard's sessions one at a
// time in arrival order, and read by Run after that goroutine has exited,
// so it needs no lock.
type shardState struct {
	id  int
	env *appkit.CoreEnv
	cln []core.CleanupID // indexed like cleanupSites

	// task is the shard's one task, run once per admitted session: it
	// serves cur. cause is the refused mapping that shed cur, if one did,
	// kept until account reads it.
	task  shard.Task
	cur   session
	cause error
	// taskErr is the shard's first task failure, naming its session.
	taskErr error

	// pending is the modelled queue, a ring of the completion times of the
	// sessions admitted but not yet complete at the head session's arrival
	// instant, oldest first: npending of them from pendHead. Admission
	// sheds a session that finds MaxQueue ahead of it, so the ring never
	// holds more. busyUntil is the shard's modelled clock (completion time
	// of the last admitted session).
	pending            []uint64
	pendHead, npending int
	busyUntil          uint64

	stats ShardStats
	// sloMisses counts completions over the SLO target; depth is the
	// modelled queue depth when the shard last admitted a session.
	sloMisses     uint64
	depth         int
	leaked        uint64
	firstOverload error
	firstSID      int

	// latency and phases are the shard's histograms, and slot its place on
	// the server's board, all nil unless the run is metered; phases,
	// indexed by trace.SpanKind, is nil also without Config.Spans.
	latency *hist
	phases  []hist
	slot    *slot
}

// board is where the shards of a metered run publish their serving
// tallies for the run's metrics source, after every session they serve,
// so a live scrape reads them without a per-event atomic.
type board struct {
	mu    sync.Mutex
	slots []*slot
}

// slot is one shard's published tally.
type slot struct {
	stats     ShardStats
	sloMisses uint64
	depth     int
	latency   hist
	phases    []hist
}

// emit is the run's metrics source.
func (b *board) emit(s *metrics.Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sl := range b.slots {
		s.Counter("regions_serve_admitted_total", sl.stats.Admitted)
		s.Counter("regions_serve_completed_total", sl.stats.Completed)
		s.Counter("regions_serve_queued_total", sl.stats.Queued)
		s.Counter(`regions_serve_shed_total{reason="queue"}`, sl.stats.ShedQueue)
		s.Counter(`regions_serve_shed_total{reason="oom"}`, sl.stats.ShedOOM)
		s.Counter("regions_serve_slo_miss_total", sl.sloMisses)
		s.Gauge(fmt.Sprintf(`regions_serve_queue_depth{shard="%d"}`, sl.stats.Shard), int64(sl.depth))
		s.Histogram("regions_serve_latency_cycles", latencyBounds[:], sl.latency.buckets[:], sl.latency.sum)
		if sl.phases != nil {
			for _, k := range trace.SpanKinds() {
				s.Histogram(fmt.Sprintf(`regions_serve_phase_cycles{phase=%q}`, k),
					latencyBounds[:], sl.phases[k].buckets[:], sl.phases[k].sum)
			}
		}
	}
}

// add meters st: it gives st its histograms, phases only under spans, and
// a slot on the board.
func (b *board) add(st *shardState, spans bool) {
	st.latency = &hist{}
	st.slot = &slot{stats: st.stats}
	if spans {
		st.phases = make([]hist, trace.NumSpanKinds)
		st.slot.phases = make([]hist, trace.NumSpanKinds)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.slots = append(b.slots, st.slot)
}

// publish copies st's tally into its slot, if it has one.
func (b *board) publish(st *shardState) {
	sl := st.slot
	if sl == nil {
		return
	}
	b.mu.Lock()
	sl.stats, sl.sloMisses, sl.depth, sl.latency = st.stats, st.sloMisses, st.depth, *st.latency
	copy(sl.phases, st.phases)
	b.mu.Unlock()
}

// Run executes one serving run: serve the schedule (in two phases around a
// resize barrier when ResizeTo is set), drain, verify every shard's heap,
// and report. The only error returns are a configuration Run cannot serve
// and infrastructure failures (a task panic, a corrupt heap at drain);
// overload is never an error — it is the Shed* counters and FirstOverload
// in the Result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	sv := newServer(cfg)
	sv.startEngine()

	first := 0 // the last phase's first session
	if cfg.ResizeTo > 0 {
		first = max(1, int(float64(cfg.Sessions)*cfg.ResizeAfter))
		sv.serve(0, first)
		if err := sv.resizeBarrier(); err != nil {
			return nil, err
		}
	}
	sv.serve(first, cfg.Sessions)
	return sv.report()
}

// validate rejects configurations Run cannot serve: a rate, burst factor
// or resize fraction that is not finite or is negative, and a negative
// count (zero picks the default, so a negative value would silently run as
// something else), then the rest with the defaults applied.
func (cfg Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"Rate", cfg.Rate}, {"BurstFactor", cfg.BurstFactor}, {"ResizeAfter", cfg.ResizeAfter}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: %s must be finite, got %g", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("serve: %s must not be negative, got %g", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Shards", cfg.Shards}, {"MaxQueue", cfg.MaxQueue}, {"PageLimit", cfg.PageLimit},
		{"SweepBudget", cfg.SweepBudget}, {"SweepHighWater", cfg.SweepHighWater},
		{"Tenants", cfg.Tenants}, {"ResizeTo", cfg.ResizeTo}, {"TopSlow", cfg.TopSlow}} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s must not be negative, got %d", f.name, f.v)
		}
	}
	cfg = cfg.withDefaults()
	if cfg.Sessions <= 0 {
		return fmt.Errorf("serve: Sessions must be positive, got %d", cfg.Sessions)
	}
	if cfg.Profile != "" && profileByName(cfg.Profile) == nil {
		return fmt.Errorf("serve: unknown profile %q", cfg.Profile)
	}
	if cfg.ResizeTo > 0 {
		if cfg.Tenants == 0 {
			return fmt.Errorf("serve: ResizeTo requires Tenants > 0")
		}
		if cfg.ResizeTo <= cfg.Shards {
			return fmt.Errorf("serve: ResizeTo (%d) must exceed Shards (%d)", cfg.ResizeTo, cfg.Shards)
		}
		if cfg.ResizeAfter <= 0 || cfg.ResizeAfter >= 1 {
			return fmt.Errorf("serve: ResizeAfter must be in (0, 1), got %g", cfg.ResizeAfter)
		}
	}
	return nil
}

// newServer resolves a validated config into a server: the metrics source
// on the caller's registry, checksum mode, and tenant table.
func newServer(cfg Config) *server {
	sv := &server{cfg: cfg, board: &board{}, lat: make([]uint64, cfg.Sessions)}
	if cfg.Spans {
		sv.recs = make([]phaseRecord, cfg.Sessions)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.AddSource(sv.board.emit)
	}
	if p := profileByName(cfg.Profile); p != nil && p.recycle {
		// Recycling frees mid-request, so pooled and unpooled runs allocate
		// at different addresses by design; only content sums can gate them.
		sv.content = true
	}
	if cfg.Tenants > 0 {
		sv.content = true
		sv.tenants = make([]*tenantState, cfg.Tenants)
		for t := range sv.tenants {
			sv.tenants[t] = &tenantState{home: tenantHome(t, cfg.Tenants, cfg.Shards)}
		}
	}
	return sv
}

// startEngine starts the shard engine and sets up every shard. The engine
// does no idle sweeping of its own: serveOne models it on the simulated
// clock, which keeps sweep progress, and so every latency percentile,
// deterministic.
func (sv *server) startEngine() {
	cfg := sv.cfg
	opts := []shard.Option{shard.WithShards(cfg.Shards), shard.WithMetrics(cfg.Metrics)}
	if cfg.DeferredDelete {
		opts = append(opts, shard.WithDeferredDelete(cfg.SweepBudget, cfg.SweepHighWater))
	}
	if cfg.NoStrPool {
		opts = append(opts, shard.WithNoStrPool())
	}
	sv.eng = shard.NewEngine(opts...)
	for i := 0; i < cfg.Shards; i++ {
		sv.states = append(sv.states, sv.newShardState(i))
	}
}

// newShardState applies the run's per-shard setup to engine shard i — the
// page limit, the fault plan, and the cleanup registrations ImportRegion
// requires on a receiving runtime before any tenant can migrate in — and
// returns the shard's serving state. The engine must be idle: before the
// first session, or at the resize barrier.
func (sv *server) newShardState(i int) *shardState {
	env := sv.eng.Env(i)
	if sv.cfg.PageLimit > 0 {
		env.Space().SetPageLimit(sv.cfg.PageLimit)
	}
	if sv.cfg.FaultPlan != nil {
		env.Space().SetFaultPlan(sv.cfg.FaultPlan)
	}
	st := &shardState{
		id:       i,
		env:      env,
		cln:      registerCleanups(env.Runtime()),
		pending:  make([]uint64, min(sv.cfg.Sessions, sv.cfg.MaxQueue)),
		firstSID: -1,
	}
	st.task = shard.Task{
		Name: "serve",
		Home: i + 1, // the sessions' regions live on this runtime
		Run:  func(appkit.RegionEnv) uint32 { return sv.serveOne(st, &st.cur) },
	}
	st.stats.Shard = i
	if sv.cfg.Metrics != nil {
		sv.board.add(st, sv.cfg.Spans)
	}
	return st
}

// serve serves sessions [first, last) of the schedule on one goroutine per
// shard: the calling goroutine serves shard 0, whose stack has already
// grown if it served before, and a goroutine of its own each other shard.
// The shards share no session and serve at once. serve returns once every
// shard has served its sessions and every goroutine it started has exited
// — the barrier the resize path needs between its two phases — so no
// goroutine outlives it.
func (sv *server) serve(first, last int) {
	var wg sync.WaitGroup
	for _, st := range sv.states[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv.serveShard(st, first, last)
		}()
	}
	sv.serveShard(sv.states[0], first, last)
	wg.Wait()
}

// serveShard replays the schedule on an arrival stream of its own, from
// session 0 so every draw comes in its order, skips the sessions before
// first and offers, in arrival order, each later one homed on st: a tenant
// session on its tenant's current home, which it stamps into s.shard so
// the session's record and spans name the shard that served it.
func (sv *server) serveShard(st *shardState, first, last int) {
	arr := newArrivals(sv.cfg)
	for range first {
		arr.next()
	}
	for range last - first {
		s := arr.next()
		if s.tenant >= 0 {
			s.shard = int32(sv.tenants[s.tenant].home)
		}
		if int(s.shard) == st.id {
			sv.offer(st, s)
		}
	}
}

// offer admits s on its home shard st against the shard's modelled queue
// and, unless the queue sheds it, serves it with the shard's task on the
// engine and accounts it; on a metered run it then publishes the shard's
// tally. Only st's goroutine calls it.
func (sv *server) offer(st *shardState, s session) {
	// Drain the modelled queue up to this session's arrival instant, then
	// shed if MaxQueue sessions are still ahead of it. A shed session never
	// becomes a task. A session arriving after busyUntil finds the queue
	// empty, so only admitted sessions sweep in an idle gap (serveOne).
	for st.npending > 0 && st.pending[st.pendHead] <= s.arrival {
		st.pendHead = (st.pendHead + 1) % len(st.pending)
		st.npending--
	}
	if st.npending >= sv.cfg.MaxQueue {
		sv.lat[s.id] = shedMark
		st.stats.ShedQueue++
		st.noteOverload(s.id, nil)
	} else {
		st.cur = s
		res := sv.eng.Run(st.task)
		if res.Err != nil && st.taskErr == nil {
			st.taskErr = fmt.Errorf("session %d: %w", s.id, res.Err)
		}
		sv.account(st, &st.cur, res)
	}
	sv.board.publish(st)
}

// resizeBarrier runs between the two phases of a resize run. Every phase-1
// session has completed and every shard's goroutine has exited, so the
// engine is idle and Run may touch shard runtimes directly (the same
// quiescence contract Env documents for before-first-Run access). It
// records the phase-1 readings, grows the engine and sets up the new
// shards, and rehomes every tenant under the weight-balanced placement,
// moving each materialized one whose home shifts — translating the
// host-held chain head through the transfer record. Phase-2 sessions
// follow their tenants' new homes.
func (sv *server) resizeBarrier() error {
	cfg := sv.cfg
	sv.phase1Busy = make([]uint64, cfg.Shards)
	for i, st := range sv.states {
		sv.phase1Busy[i] = st.env.Counters().TotalCycles()
		rt := st.env.Runtime()
		if p := rt.SweepDebtPeak(); p > sv.phase1SweepPeak {
			sv.phase1SweepPeak = p
		}
		rt.ResetSweepDebtPeak()
	}

	if err := sv.eng.Resize(cfg.ResizeTo); err != nil {
		return fmt.Errorf("serve: resize to %d shards: %w", cfg.ResizeTo, err)
	}
	for i := cfg.Shards; i < cfg.ResizeTo; i++ {
		sv.states = append(sv.states, sv.newShardState(i))
	}

	homes := tenantHomes(cfg.Tenants, cfg.ResizeTo)
	for t, ts := range sv.tenants {
		newHome := homes[t]
		if newHome == ts.home {
			continue
		}
		if ts.r != nil {
			// The engine is idle, so the donor's and receiver's clocks move
			// only by the export and the import.
			from, to := sv.states[ts.home].env.Counters(), sv.states[newHome].env.Counters()
			fromBegin, toBegin := from.TotalCycles(), to.TotalCycles()
			m, err := sv.eng.MigrateRegion(ts.r, ts.home, newHome)
			if err != nil {
				return fmt.Errorf("serve: migrate tenant %d from shard %d to %d: %w",
					t, ts.home, newHome, err)
			}
			sv.track = append(sv.track,
				trackSpan{trace.SpanMigrate, ts.home, fromBegin, from.TotalCycles()},
				trackSpan{trace.SpanMigrate, newHome, toBegin, to.TotalCycles()})
			ts.r = m.New
			if ts.head != 0 {
				np, ok := m.Rec.Translate(ts.head)
				if !ok {
					return fmt.Errorf("serve: tenant %d chain head did not translate", t)
				}
				ts.head = np
			}
		}
		ts.home = newHome
	}
	return nil
}

// report closes the engine, checks that every shard drained clean, and
// folds the engine aggregate, the per-shard serving tallies, the completed
// sessions' latency order statistics and, with Spans, their phase records
// into the Result. A caller's span tracer receives the records' spans.
func (sv *server) report() (*Result, error) {
	cfg := sv.cfg
	// Every session has completed, so the latencies and records can be read
	// before Close. The completed sessions' records are compacted in place,
	// keeping session order, before the latencies are sorted.
	done := sv.recs[:0]
	for id := range sv.recs {
		if sv.lat[id] != shedMark {
			done = append(done, sv.recs[id])
		}
	}
	agg := sv.eng.Close()
	if agg.Failures > 0 {
		for _, st := range sv.states {
			if st.taskErr != nil {
				return nil, fmt.Errorf("serve: %d session task failures, e.g. %w", agg.Failures, st.taskErr)
			}
		}
		for _, s := range agg.PerShard {
			if s.LastError != "" {
				return nil, fmt.Errorf("serve: %d session task failures, e.g. %s", agg.Failures, s.LastError)
			}
		}
		return nil, fmt.Errorf("serve: %d session task failures", agg.Failures)
	}
	for i, st := range sv.states {
		rt := st.env.Runtime()
		if d := rt.SweepDebt(); d != 0 {
			return nil, fmt.Errorf("serve: shard %d still carries %d pages of sweep debt at drain", i, d)
		}
		if err := rt.Verify(); err != nil {
			return nil, fmt.Errorf("serve: shard %d heap verify at drain: %w", i, err)
		}
	}

	res := &Result{
		Sessions:       cfg.Sessions,
		Shards:         cfg.Shards,
		Seed:           cfg.Seed,
		Rate:           cfg.Rate,
		Checksum:       agg.Checksum,
		SLOTarget:      cfg.SLOP99,
		DeferredDelete: cfg.DeferredDelete,
	}
	for _, s := range agg.PerShard {
		res.SweptPages += s.SweptPages
		if s.SweepDebtPeak > res.SweepDebtPeakPages {
			res.SweepDebtPeakPages = s.SweepDebtPeak
		}
		if s.DrainSweepCycles > res.ReclamationLagCycles {
			res.ReclamationLagCycles = s.DrainSweepCycles
		}
		if d := s.DrainSweepCycles; d > 0 {
			sv.track = append(sv.track, trackSpan{trace.SpanSweep, s.Shard, s.SimCycles - d, s.SimCycles})
		}
	}
	firstSID := -1
	for _, st := range sv.states {
		res.Admitted += st.stats.Admitted
		res.Completed += st.stats.Completed
		res.Queued += st.stats.Queued
		res.ShedQueue += st.stats.ShedQueue
		res.ShedOOM += st.stats.ShedOOM
		res.Leaked += st.leaked
		if st.stats.MaxDepth > res.MaxQueueDepth {
			res.MaxQueueDepth = st.stats.MaxDepth
		}
		if st.busyUntil > res.MakespanCycles {
			res.MakespanCycles = st.busyUntil
		}
		if st.firstOverload != nil && (firstSID < 0 || st.firstSID < firstSID) {
			firstSID = st.firstSID
			res.FirstOverload = st.firstOverload
		}
		res.PerShard = append(res.PerShard, st.stats)
		res.MappedBytes += st.env.Space().MappedBytes()
		sp := st.env.Runtime().StrPoolStats()
		res.StrNew += sp.New
		res.StrReuse += sp.Reuse
		res.StrBig += sp.Big
		res.StrFreed += sp.Freed
	}
	if total := res.StrNew + res.StrReuse; total > 0 {
		res.StrReuseRatio = float64(res.StrReuse) / float64(total)
	}
	// Shed sessions' marks sort after every latency.
	slices.Sort(sv.lat)
	lat := sv.lat[:res.Completed]
	var sum uint64
	for _, l := range lat {
		sum += l
	}
	res.P50 = trace.QuantileSorted(lat, 0.50)
	res.P99 = trace.QuantileSorted(lat, 0.99)
	res.P999 = trace.QuantileSorted(lat, 0.999)
	res.MaxCycles = trace.QuantileSorted(lat, 1)
	if !(res.P50 <= res.P99 && res.P99 <= res.P999 && res.P999 <= res.MaxCycles) {
		return nil, fmt.Errorf("serve: latency order statistics out of order: p50 %d, p99 %d, p999 %d, max %d",
			res.P50, res.P99, res.P999, res.MaxCycles)
	}
	res.Mean = sum / max(1, uint64(len(lat)))
	res.SLOPass = res.P99 <= cfg.SLOP99

	if cfg.Tenants > 0 {
		res.Tenants = cfg.Tenants
		res.ResizeTo = cfg.ResizeTo
		res.Migrations, res.MigratedPages = sv.eng.Migrations()
		// The engine has drained and closed, so reading the runtimes is
		// safe; tenant regions outlive their sessions by design and are
		// reclaimed with the shard heaps.
		for _, ts := range sv.tenants {
			if ts.r != nil {
				res.TenantChecksum += sv.states[ts.home].env.Runtime().ContentChecksum(ts.r)
			}
		}
	}
	if cfg.ResizeTo > 0 {
		res.Phase1BusyRatio = busyRatio(sv.phase1Busy)
		phase2Busy := make([]uint64, len(agg.PerShard))
		peak2 := 0
		for i, s := range agg.PerShard {
			phase2Busy[i] = s.SimCycles
			if i < len(sv.phase1Busy) {
				phase2Busy[i] -= sv.phase1Busy[i]
			}
			if s.SweepDebtPeak > peak2 {
				peak2 = s.SweepDebtPeak
			}
		}
		res.Phase2BusyRatio = busyRatio(phase2Busy)
		if cfg.DeferredDelete {
			res.SweepDebtPeakPhases = []int{sv.phase1SweepPeak, peak2}
		}
	}
	if cfg.Spans {
		rep, err := buildSpanReport(done, cfg.TopSlow)
		if err != nil {
			return nil, err
		}
		res.Spans = rep
	}
	if cfg.SpanTracer != nil {
		for _, w := range sv.track {
			emitSpan(cfg.SpanTracer, w.kind, -1, w.shard, w.begin, w.end)
		}
		exportSpans(cfg.SpanTracer, done)
		if err := checkExport(cfg.SpanTracer, done); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tenantHome is the pre-resize placement: contiguous blocks, tenant t on
// shard t*shards/tenants — the "tenants assigned in signup order" shape.
// Combined with the triangular draw skew (low tenant ids are hot) this
// concentrates the hot tenants on the low shards, which is the imbalance
// the resize barrier exists to fix.
func tenantHome(t, tenants, shards int) int {
	return t * shards / tenants
}

// tenantHomes assigns tenants to shards for the post-resize phase:
// longest-processing-time greedy over the tenants' known draw weights
// (tenant t's triangular weight is Tenants - t; see pickTenant), each
// placed on the currently lightest shard. Unlike the t % Shards rule the
// pre-resize phase uses — which concentrates the hot low-numbered tenants
// on the low shards — this spreads expected load nearly evenly, so the
// resize actually fixes the imbalance rather than reshuffling it.
func tenantHomes(tenants, shards int) []int {
	homes := make([]int, tenants)
	load := make([]int, shards)
	for t := 0; t < tenants; t++ {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		homes[t] = best
		load[best] += tenants - t
	}
	return homes
}

// busyRatio is max/min over per-shard busy cycles, min floored at one cycle
// so an idle shard yields a huge ratio rather than a division by zero.
func busyRatio(busy []uint64) float64 {
	if len(busy) == 0 {
		return 0
	}
	min, max := busy[0], busy[0]
	for _, b := range busy {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min == 0 {
		min = 1
	}
	return float64(max) / float64(min)
}

// serveOne is the shard task's body: the admitted session's lifecycle on
// the shard's runtime. It never panics under resource pressure — every
// allocation goes through a Try* primitive — and a session a refused page
// mapping aborts returns checksum 0 after releasing its regions, leaving
// the refusal in st.cause (an OOM shed).
func (sv *server) serveOne(st *shardState, s *session) uint32 {
	// Modelled idle sweeping: the cycles between the previous session's
	// completion and this arrival are shard idle time on the modelled
	// clock, so deferred mode spends them on sweep debt — one bounded slice
	// at a time, stopping once the gap is spent (overshoot is at most one
	// slice). The slices charge the runtime inside this task's measured
	// window, so serveOne records their cost for complete to subtract:
	// sweeping in an idle gap must not bill the session that happened to
	// arrive next.
	if sv.cfg.DeferredDelete && s.arrival > st.busyUntil {
		gap := s.arrival - st.busyUntil
		rt := st.env.Runtime()
		for s.sweepCycles < gap && rt.SweepDebt() > 0 {
			before := st.env.Counters().TotalCycles()
			if rt.SweepSlice() == 0 {
				break
			}
			s.sweepCycles += st.env.Counters().TotalCycles() - before
		}
	}
	rec := sv.record(s)
	if rec != nil {
		// Everything charged from here to the final cut is the session's
		// service; the idle-gap slices above accounted themselves in
		// s.sweepCycles, so this reading sits at StartCycles + sweepCycles.
		*rec = phaseRecord{
			clock: st.env.Counters().TotalCycles(),
			tax:   st.env.Runtime().SweepTaxCycles(),
		}
	}
	sum, err := sv.lifecycle(st, s, rec)
	if err != nil {
		st.cause = err
		return 0
	}
	// The final delete boundary is cut here, after lifecycle's deferred
	// PopFrame has charged its stack-unscan cycles, so frame teardown lands
	// in the delete phase and the segments tile the whole window.
	rec.cut(st, trace.SpanDelete)
	return sum
}

// shedMark is a shed session's entry in server.lat. It sorts after every
// latency, so report finds the completed sessions' latencies, sorted, in
// the first Completed entries.
const shedMark = ^uint64(0)

// record returns s's phase record under Config.Spans, nil otherwise.
func (sv *server) record(s *session) *phaseRecord {
	if sv.recs == nil {
		return nil
	}
	return &sv.recs[s.id]
}

// account advances the shard's modelled clock by the simulated cycles the
// admitted session actually consumed (res.EndCycles - res.StartCycles,
// measured by the engine around the task), records the session's latency
// and phases, and updates the shard's tally.
func (sv *server) account(st *shardState, s *session, res shard.TaskResult) {
	prevBusy := st.busyUntil // where this session's idle gap (if any) began
	start := max(s.arrival, st.busyUntil)
	// The session's service time is what it consumed on the shard runtime,
	// minus any idle-gap sweep slices serveOne ran inside the same measured
	// window — those belong to the shard's idle time, not this session.
	service := res.EndCycles - res.StartCycles
	if service >= s.sweepCycles {
		service -= s.sweepCycles
	} else {
		service = 0
	}
	completion := start + service
	st.busyUntil = completion
	st.pending[(st.pendHead+st.npending)%len(st.pending)] = completion
	st.npending++
	if st.npending > st.stats.MaxDepth {
		st.stats.MaxDepth = st.npending
	}
	st.depth = st.npending
	st.stats.BusyUntilCycles = completion
	st.stats.Admitted++
	if start > s.arrival {
		st.stats.Queued++
	}
	if st.cause != nil {
		sv.lat[s.id] = shedMark
		st.stats.ShedOOM++
		st.noteOverload(s.id, st.cause)
		st.cause = nil
		return
	}
	st.stats.Completed++
	latency := completion - s.arrival
	sv.lat[s.id] = latency
	if st.latency != nil {
		st.latency.observe(latency)
	}
	if latency > sv.cfg.SLOP99 {
		st.sloMisses++
	}
	if rec := sv.record(s); rec != nil {
		rec.settle(s, latency, prevBusy, start)
		if st.phases != nil {
			for _, k := range trace.SpanKinds() {
				st.phases[k].observe(rec.phases[k])
			}
		}
	}
}

// noteOverload keeps the shard's earliest shed error: session id's, shed
// by the refused page mapping cause, or by a full queue if cause is nil.
func (st *shardState) noteOverload(id int32, cause error) {
	if st.firstOverload != nil {
		return
	}
	e := &OverloadError{Session: int(id), Shard: st.id, Reason: "queue full"}
	if cause != nil {
		e.Reason, e.Err = "out of memory", cause
	}
	st.firstOverload, st.firstSID = e, int(id)
}

// lifecycle runs one session on the shard's runtime: parse into a request
// region, open a work region that outlives it, delete the parse region
// mid-request (the non-lexical lifetime Spegion motivates), hammer the
// sameregion write barrier, then delete the work region. All allocation
// goes through Try* primitives; the first refused page mapping aborts the
// session, releases whatever it created, and surfaces as the returned
// error. rec is the session's phase record, nil without Spans.
func (sv *server) lifecycle(st *shardState, s *session, rec *phaseRecord) (uint32, error) {
	rt := st.env.Runtime()
	f := rt.PushFrame(2)
	defer rt.PopFrame()

	abort := func(regs ...*core.Region) {
		f.Set(0, 0)
		f.Set(1, 0)
		for _, r := range regs {
			if r == nil {
				continue
			}
			if ok, _ := rt.TryDeleteRegion(r); !ok {
				st.leaked++
			}
		}
	}

	parse, err := rt.TryNewRegion()
	if err != nil {
		return 0, err
	}
	weight := int(s.weight)
	sum, _, err := sv.allocPhase(st, parse, s.prof.parse, weight, f, 0, s.prof.recycle)
	if err != nil {
		abort(parse)
		return 0, err
	}
	rec.cut(st, trace.SpanParse)

	work, err := rt.TryNewRegion()
	if err != nil {
		abort(parse)
		return 0, err
	}
	wsum, hot, err := sv.allocPhase(st, work, s.prof.work, weight, f, 1, s.prof.recycle)
	sum += wsum
	if err != nil {
		abort(parse, work)
		return 0, err
	}
	rec.cut(st, trace.SpanWork)

	// The parse region dies while the request is still running: its only
	// counted reference is frame slot 0, so clearing the slot makes the
	// delete succeed — and if anything else still referenced it, the
	// safety machinery refuses and we record the leak instead of dying.
	f.Set(0, 0)
	if ok, derr := rt.TryDeleteRegion(parse); derr != nil {
		abort(work)
		return 0, derr
	} else if !ok {
		st.leaked++
	}
	rec.cut(st, trace.SpanDelete)

	// Work phase proper: sameregion pointer stores between the work
	// region's two hottest objects — the steady-state barrier path that
	// dominates all six apps.
	if hot[0] != 0 && hot[1] != 0 {
		for i := 0; i < s.prof.stores*weight; i++ {
			if i%2 == 0 {
				rt.StorePtr(hot[0], hot[1])
			} else {
				rt.StorePtr(hot[1], hot[0])
			}
		}
		rt.StorePtr(hot[0], 0)
		rt.StorePtr(hot[1], 0)
	}

	// Tenant mode: append this session's state to its tenant's long-lived
	// region before the request's own regions die.
	if s.tenant >= 0 {
		tsum, terr := sv.tenantPhase(st, s)
		if terr != nil {
			abort(work)
			return 0, terr
		}
		sum += tsum
	}
	// Store loop and tenant append are the work phase's second half; the
	// final delete cut happens in serveOne after the deferred PopFrame.
	rec.cut(st, trace.SpanWork)

	f.Set(1, 0)
	if ok, derr := rt.TryDeleteRegion(work); derr != nil {
		return 0, derr
	} else if !ok {
		st.leaked++
	}
	return sum, nil
}

// tenantPhase appends one session's worth of state to its tenant's region:
// tenantNodes*weight scanned nodes, each holding a small-int payload and a
// sameregion link to the previous node, with the chain head kept host-side
// in the tenant table (never in a frame — see tenantState). A refused page
// mapping aborts the session but keeps the tenant region: tenants outlive
// requests, so partial appends simply stand.
func (sv *server) tenantPhase(st *shardState, s *session) (uint32, error) {
	ts := sv.tenants[s.tenant]
	rt := st.env.Runtime()
	if ts.r == nil {
		r, err := rt.TryNewRegion()
		if err != nil {
			return 0, err
		}
		ts.r = r
	}
	var sum uint32
	for i := 0; i < tenantNodes*int(s.weight); i++ {
		p, err := rt.TryRalloc(ts.r, tenantNodeSize, st.cln[tenantCln])
		if err != nil {
			return 0, err
		}
		// The payload is a small integer, far below the first mapped page,
		// so neither the write barrier nor the export scan can mistake it
		// for a pointer.
		v := uint32(s.id%251 + 1)
		st.env.Space().Store(p, v)
		if ts.head != 0 {
			rt.StorePtr(p+mem.WordSize, ts.head)
		}
		ts.head = p
		sum += v + uint32(i)
	}
	return sum, nil
}

// allocPhase performs one phase's allocation mix into r, chaining scanned
// objects with sameregion pointer stores (a linked structure, like the
// apps' ASTs), anchoring the chain head in frame slot fslot, and returning
// the phase checksum plus the last two scanned objects (the "hot" pair the
// store loop reuses). On recycling profiles each string site frees its
// previous block once the next replaces it — the line-buffer churn the
// pooled string allocator serves from its free lists.
func (sv *server) allocPhase(st *shardState, r *core.Region, sites []site, weight int, f *core.Frame, fslot int, recycle bool) (uint32, [2]core.Ptr, error) {
	rt := st.env.Runtime()
	var sum uint32
	var hot [2]core.Ptr
	var prev core.Ptr
	for _, sc := range sites {
		n := sc.count * weight
		switch sc.kind {
		case allocPtr:
			cln := st.cln[sc.cln]
			for i := 0; i < n; i++ {
				p, err := rt.TryRalloc(r, sc.size, cln)
				if err != nil {
					return sum, hot, err
				}
				if prev == 0 {
					f.Set(fslot, p)
				} else {
					rt.StorePtr(prev, p) // sameregion: chains the structure
				}
				prev = p
				hot[0], hot[1] = hot[1], p
				sum += sv.mix(p, uint32(sc.size), uint32(i))
			}
		case allocStr:
			var last core.Ptr
			for i := 0; i < n; i++ {
				p, err := rt.TryRstrAlloc(r, sc.size)
				if err != nil {
					return sum, hot, err
				}
				st.env.Space().Store(p, uint32(sc.size)) // payload, pointer-free
				sum += sv.mix(p, uint32(sc.size), uint32(i)+1<<16)
				if recycle && last != 0 {
					if err := rt.TryRstrFree(r, last, sc.size); err != nil {
						return sum, hot, err
					}
				}
				last = p
			}
		case allocArr:
			p, err := rt.TryRarrayAlloc(r, n, sc.size, st.cln[sc.cln])
			if err != nil {
				return sum, hot, err
			}
			sum += sv.mix(p, uint32(sc.size), uint32(n)+2<<16)
		}
	}
	return sum, hot, nil
}

// mix is one allocation's checksum contribution. The default sums the
// allocated address — the batch engine's historical determinism gate.
// Tenant mode (sv.content) sums a pure function of the site instead,
// because tenant migration and resize legitimately change where and in what
// order shards allocate: content sums keep Result.Checksum bit-identical
// across a resize A/B, which address sums cannot.
func (sv *server) mix(p core.Ptr, a, b uint32) uint32 {
	if sv.content {
		return a*2654435761 + b*40503 + 1
	}
	return uint32(p)
}

// registerCleanups registers every cleanup in cleanupSites on rt and
// returns their ids, indexed like cleanupSites. The sessions' scanned
// objects hold only sameregion pointers, which the write barrier never
// counts, so the cleanups have no Destroy calls to make — they exist to
// give each site its census label and to report the object size the
// deletion walk advances by. The tenant-state site is registered on every
// shard — including shards grown by a resize — because ImportRegion
// remaps cleanups by name and refuses a record whose names the receiver
// has never registered.
func registerCleanups(rt *core.Runtime) []core.CleanupID {
	ids := make([]core.CleanupID, len(cleanupSites))
	for i, cs := range cleanupSites {
		ids[i] = rt.RegisterSizeCleanup(cs.name, cs.size)
	}
	return ids
}
