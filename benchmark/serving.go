package main

import (
	"fmt"
	"time"

	"regions/internal/metrics"
	"regions/internal/serve"
	"regions/internal/trace"
)

const (
	// serveShards is one busy shard goroutine per core of a two-core host.
	serveShards   = 2
	serveSessions = 40_000
	// subRuns is how many arrival schedules the exact latency quantiles
	// pool. Near the knee the tail of one 40,000-request schedule moves
	// 5-10% from seed to seed; three pooled schedules move it 2-7%.
	subRuns = 3
	// capacitySteps bisects [rate/2, 3*rate/2] down to rate/128.
	capacitySteps = 7
)

// serveMix is one serving workload: a seeded open-loop Poisson arrival
// process of sessions onto a two-shard engine, each session a
// parse/work/delete region lifecycle (see internal/serve). Arrivals are
// modelled on the simulated clock, so the generator is never late.
type serveMix struct {
	name   string
	cfg    serve.Config
	limit  uint64 // the p99 latency limit capacity_rate is judged against
	pinned bool   // full size at seed 1: check the pinned checksum
}

func newServeMix(name, profile string, deferred bool, rate float64, limit uint64, seed int64, scaleDiv int) *serveMix {
	return &serveMix{
		name: name,
		cfg: serve.Config{
			Sessions:       max(1, serveSessions/scaleDiv),
			Seed:           seed,
			Shards:         serveShards,
			Rate:           rate,
			Profile:        profile,
			DeferredDelete: deferred,
		},
		limit:  limit,
		pinned: scaleDiv == 1 && seed == 1,
	}
}

// setup is a one-session run of the workload's configuration: the engine
// and its shard runtimes, cleanup registration, drain, heap verification
// and close, which every run pays whatever its length.
func (s *serveMix) setup() error {
	cfg := s.cfg
	cfg.Sessions = 1
	_, err := serve.Run(cfg)
	return err
}

// rep is one run as the serving simulator runs by default: its shard
// runtimes unmetered.
func (s *serveMix) rep() (repOut, error) {
	r, err := serve.Run(s.cfg)
	if err != nil {
		return repOut{}, err
	}
	return serveOut(r), nil
}

func serveOut(r *serve.Result) repOut {
	return repOut{
		sim: fmt.Sprintf("checksum=%08x completed=%d mean=%d makespan=%d mapped=%d",
			r.Checksum, r.Completed, r.Mean, r.MakespanCycles, r.MappedBytes),
		osBytes:   r.MappedBytes,
		attempted: uint64(r.Sessions),
		failed:    r.ShedQueue + r.ShedOOM,
	}
}

// spanned is one run with its span profile.
type spanned struct {
	r    *serve.Result
	p    *trace.SpanProfile
	lat  []uint64      // every completed request's exact latency
	host time.Duration // serve.Run's wall time
}

// spanRun runs cfg with a benchmark-owned span tracer.
func spanRun(cfg serve.Config) (*spanned, error) {
	// About 12 events per session, so the ring never wraps.
	t := trace.New(16*cfg.Sessions + 1024)
	cfg.SpanTracer = t
	var r *serve.Result
	t0 := time.Now()
	err := program(func() (err error) {
		r, err = serve.Run(cfg)
		return err
	})
	host := time.Since(t0)
	if err != nil {
		return nil, err
	}
	p, err := trace.BuildSpanProfile(t.Events(), t.Stats().Dropped)
	if err != nil {
		return nil, err
	}
	lat := make([]uint64, len(p.Requests))
	for i, rq := range p.Requests {
		lat[i] = rq.Latency()
	}
	return &spanned{r: r, p: p, lat: lat, host: host}, nil
}

// traced runs subRuns schedules with spans: the first with the workload's
// own seed, the rest with seeds derived from it. The latency metrics pool
// every schedule's requests. The per-layer metrics come from the first,
// which repeats the untraced repetition metered into a registry and under
// the CPU profiler. The simulated work is every shard's busy cycles.
func (s *serveMix) traced(res *result, want repOut) (tracedOut, error) {
	var all []uint64
	var first *spanned
	var snap *metrics.Snapshot
	var dropped uint64
	var shares hostShares
	for k := 0; k < subRuns; k++ {
		cfg := s.cfg
		cfg.Seed += int64(k) << 32
		var sp *spanned
		var err error
		if k == 0 {
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			err = shares.profile(func() (err error) {
				sp, err = spanRun(cfg)
				return err
			})
			snap = reg.Snapshot()
		} else {
			sp, err = spanRun(cfg)
		}
		if err != nil {
			return tracedOut{}, fmt.Errorf("schedule %d: %w", k, err)
		}
		checkSpans(res, k, sp)
		dropped += sp.p.Dropped
		all = append(all, sp.lat...)
		if k == 0 {
			first = sp
		}
	}
	r, p := first.r, first.p
	if got := serveOut(r); got.sim != want.sim {
		res.fail("the traced run changed the simulated outputs: %s, untraced %s", got.sim, want.sim)
	}
	if w := pinned[s.name]; s.pinned && r.Checksum != w {
		res.fail("checksum %08x, pinned %08x", r.Checksum, w)
	}
	var slowest uint64
	for _, v := range all {
		slowest = max(slowest, v)
	}
	latencyMetrics(res, trace.QuantileExact(all, 0.50), trace.QuantileExact(all, 0.99),
		trace.QuantileExact(all, 0.999), slowest)

	registryLayers(res, snap)
	busy := snap.CounterSum("regions_shard_busy_cycles_total")
	res.layer("shard.busy_ratio", ratio(float64(busy), float64(r.Shards)*float64(r.MakespanCycles)))
	util, _ := snap.Gauge("regions_shard_utilization_pct")
	res.layer("shard.utilization_pct", float64(util))
	for _, k := range []trace.SpanKind{trace.SpanQueue, trace.SpanParse, trace.SpanWork, trace.SpanDelete, trace.SpanSweep} {
		res.layer("serve."+k.String()+"_cycles", float64(p.PhaseTotals[k]))
	}
	res.layer("serve.queue_p99_cycles", float64(trace.QuantileExact(p.PhaseValues(trace.SpanQueue), 0.99)))
	res.layer("serve.queued_ratio", ratio(float64(r.Queued), float64(r.Admitted)))
	res.layer("serve.max_queue_depth", float64(r.MaxQueueDepth))
	exact := float64(trace.QuantileExact(first.lat, 0.99))
	res.layer("serve.hist_p99_error_pct", 100*ratio(float64(r.P99)-exact, exact))
	res.layer("trace.dropped_events", float64(dropped))
	hostLayerMetrics(res, &shares)
	zero(res, paperOnly)
	return tracedOut{simCycles: busy, host: first.host.Seconds()}, nil
}

// checkSpans checks one schedule's span account: a complete stream, one
// critical path per completed request, and phases that sum exactly to
// every request's latency and to the run's mean.
func checkSpans(res *result, k int, sp *spanned) {
	r, p := sp.r, sp.p
	if p.Truncated {
		res.fail("schedule %d: span stream truncated, %d events dropped", k, p.Dropped)
		return
	}
	if err := p.Conserved(); err != nil {
		res.fail("schedule %d: %v", k, err)
	}
	if uint64(len(p.Requests)) != r.Completed {
		res.fail("schedule %d: %d requests in the spans, %d completed", k, len(p.Requests), r.Completed)
	}
	var latSum, phaseSum uint64
	for _, v := range sp.lat {
		latSum += v
	}
	for _, v := range p.PhaseTotals {
		phaseSum += v
	}
	if phaseSum != latSum {
		res.fail("schedule %d: phases sum to %d cycles, request latencies to %d", k, phaseSum, latSum)
	}
	if r.Completed > 0 && latSum/r.Completed != r.Mean {
		res.fail("schedule %d: mean latency %d, exact %d", k, r.Mean, latSum/r.Completed)
	}
}

// capacity bisects the offered rate for the highest one whose exact p99
// stays within the workload's limit with nothing shed, over the same seed
// and sessions.
func (s *serveMix) capacity(tracedOut) (float64, error) {
	lo, hi := s.cfg.Rate/2, s.cfg.Rate*3/2
	met := false
	for i := 0; i < capacitySteps; i++ {
		cfg := s.cfg
		cfg.Rate = (lo + hi) / 2
		sp, err := spanRun(cfg)
		if err != nil {
			return 0, fmt.Errorf("rate %g: %w", cfg.Rate, err)
		}
		if sp.r.ShedQueue+sp.r.ShedOOM == 0 && trace.QuantileExact(sp.lat, 0.99) <= s.limit {
			lo, met = cfg.Rate, true
		} else {
			hi = cfg.Rate
		}
	}
	if !met {
		return 0, fmt.Errorf("no rate in [%g, %g] kept p99 within %d cycles", s.cfg.Rate/2, s.cfg.Rate*3/2, s.limit)
	}
	return lo, nil
}
