package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/race"
	"regions/internal/stats"
	"regions/internal/trace"
)

// testConfig is a small, fast serving run used by most tests.
func testConfig() Config {
	return Config{Sessions: 600, Seed: 1, Shards: 4, Rate: 700}
}

// TestServeDeterminism is the acceptance gate from the issue: the same seed
// must yield identical admitted/shed counts, the same checksum, and a
// bit-identical latency histogram across two fresh runs.
func TestServeDeterminism(t *testing.T) {
	regA, regB := metrics.NewRegistry(), metrics.NewRegistry()
	cfgA, cfgB := testConfig(), testConfig()
	cfgA.Metrics, cfgB.Metrics = regA, regB

	a, err := Run(cfgA)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfgB)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("results differ across same-seed runs:\n  a: %+v\n  b: %+v", a, b)
	}
	ha, okA := regA.Snapshot().Histogram("regions_serve_latency_cycles")
	hb, okB := regB.Snapshot().Histogram("regions_serve_latency_cycles")
	if !okA || !okB {
		t.Fatalf("latency histogram missing: a=%v b=%v", okA, okB)
	}
	if !reflect.DeepEqual(ha, hb) {
		t.Errorf("latency histograms differ across same-seed runs:\n  a: %+v\n  b: %+v", ha, hb)
	}
	if a.Completed == 0 || a.Checksum == 0 {
		t.Errorf("run did no work: %+v", a)
	}
}

// TestServeSeedsDiffer guards against the arrival process ignoring its
// seed: different seeds must produce different schedules (and therefore
// different latency profiles or checksums).
func TestServeSeedsDiffer(t *testing.T) {
	cfgA, cfgB := testConfig(), testConfig()
	cfgB.Seed = 2
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum == b.Checksum && a.MakespanCycles == b.MakespanCycles {
		t.Errorf("seeds 1 and 2 produced identical runs (checksum %08x, makespan %d)",
			a.Checksum, a.MakespanCycles)
	}
}

// TestServeBurstShedsQueue drives the burst arrival process hard enough to
// fill the admission queue and checks the queue-shed path: typed ErrOverload
// (not OOM), counted sheds, a clean run, and no engine task for a shed
// session: the shards ran one task per admitted session.
func TestServeBurstShedsQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Sessions = 1200
	cfg.BurstEvery = 1_000_000
	cfg.BurstLen = 300_000
	cfg.BurstFactor = 8
	cfg.MaxQueue = 16
	cfg.Metrics = metrics.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ShedQueue == 0 {
		t.Fatalf("burst run shed nothing: %+v", res)
	}
	if res.FirstOverload == nil {
		t.Fatal("sheds recorded but FirstOverload is nil")
	}
	if !errors.Is(res.FirstOverload, ErrOverload) {
		t.Errorf("queue shed error is not ErrOverload: %v", res.FirstOverload)
	}
	if errors.Is(res.FirstOverload, mem.ErrOutOfMemory) {
		t.Errorf("queue shed error claims out-of-memory: %v", res.FirstOverload)
	}
	if got := res.Admitted + res.ShedQueue; got != uint64(cfg.Sessions) {
		t.Errorf("admitted(%d) + shedQueue(%d) = %d, want %d sessions accounted",
			res.Admitted, res.ShedQueue, got, cfg.Sessions)
	}
	if tasks := cfg.Metrics.Snapshot().CounterSum("regions_shard_tasks_total"); tasks != res.Admitted {
		t.Errorf("the shards ran %d tasks, want one per admitted session (%d; %d shed at the queue)",
			tasks, res.Admitted, res.ShedQueue)
	}
}

// TestServeOverloadFaultPlans runs the simulator under every fault-plan
// shape the failure model supports (nth-call, probabilistic at several
// severities, byte budget) plus hard page limits, asserting the issue's
// contract: overload surfaces as a typed ErrOverload wrapping
// mem.ErrOutOfMemory — never a panic — and the run drains with clean heaps
// (serve.Run verifies every shard and would return an error otherwise).
func TestServeOverloadFaultPlans(t *testing.T) {
	cases := []struct {
		name      string
		plan      *mem.FaultPlan
		pageLimit int
	}{
		{name: "fail-nth-1", plan: &mem.FaultPlan{FailNth: 1}},
		{name: "fail-nth-3", plan: &mem.FaultPlan{FailNth: 3}},
		{name: "prob-half", plan: &mem.FaultPlan{FailProb: 0.5, Seed: 7}},
		{name: "prob-heavy", plan: &mem.FaultPlan{FailProb: 0.9, Seed: 42}},
		{name: "prob-total", plan: &mem.FaultPlan{FailProb: 1, Seed: 1}},
		{name: "byte-budget", plan: &mem.FaultPlan{ByteBudget: 8 * mem.PageSize}},
		{name: "page-limit", pageLimit: 3},
		{name: "page-limit-and-plan", plan: &mem.FaultPlan{FailProb: 0.5, Seed: 3}, pageLimit: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Sessions = 400
			cfg.FaultPlan = tc.plan
			cfg.PageLimit = tc.pageLimit
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run must absorb injected faults, got: %v", err)
			}
			if res.ShedOOM > 0 {
				if res.FirstOverload == nil {
					t.Fatal("OOM sheds recorded but FirstOverload is nil")
				}
				if !errors.Is(res.FirstOverload, ErrOverload) {
					t.Errorf("OOM shed error is not ErrOverload: %v", res.FirstOverload)
				}
				if !errors.Is(res.FirstOverload, mem.ErrOutOfMemory) {
					t.Errorf("OOM shed error does not wrap mem.ErrOutOfMemory: %v", res.FirstOverload)
				}
			}
			if got := res.Completed + res.ShedQueue + res.ShedOOM; got != uint64(cfg.Sessions) {
				t.Errorf("completed(%d)+shedQueue(%d)+shedOOM(%d) = %d, want %d",
					res.Completed, res.ShedQueue, res.ShedOOM, got, cfg.Sessions)
			}
		})
	}
}

// TestServeTotalFaultShedsEverything pins the hardest case: with every page
// mapping refused, no session can run — and the server must shed all of
// them rather than crash.
func TestServeTotalFaultShedsEverything(t *testing.T) {
	cfg := testConfig()
	cfg.Sessions = 200
	cfg.FaultPlan = &mem.FaultPlan{FailProb: 1, Seed: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != 0 || res.ShedOOM != uint64(cfg.Sessions) {
		t.Errorf("want all %d sessions OOM-shed, got completed=%d shedOOM=%d",
			cfg.Sessions, res.Completed, res.ShedOOM)
	}
	if !errors.Is(res.FirstOverload, mem.ErrOutOfMemory) {
		t.Errorf("total fault's error should wrap ErrOutOfMemory: %v", res.FirstOverload)
	}
}

// TestServeMetricsCounters checks the exported serve series against the
// result: the /metrics story is only trustworthy if the counters and the
// report agree.
func TestServeMetricsCounters(t *testing.T) { checkServeMetrics(t, false) }

// TestServeMetricsUnderConcurrentScrape runs the same check while a scraper
// renders the registry in a loop, as a live /metrics endpoint does; under
// -race it shows that reading the published tallies never races the shards.
func TestServeMetricsUnderConcurrentScrape(t *testing.T) { checkServeMetrics(t, true) }

// checkServeMetrics runs a page-limited serving run (completions and OOM
// sheds) with spans into a fresh registry, scraped throughout when scrape
// is set, and checks the serve series and histograms against the result.
func checkServeMetrics(t *testing.T, scrape bool) {
	reg := metrics.NewRegistry()
	cfg := testConfig()
	cfg.Sessions = 500
	cfg.PageLimit = 3 // force a mixed outcome: completions and OOM sheds
	cfg.Spans = true  // the shards keep and publish phase histograms too
	cfg.Metrics = reg
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for scrape {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
				if err := metrics.WritePrometheus(io.Discard, reg.Snapshot()); err != nil {
					scraped <- err
					return
				}
			}
		}
		scraped <- nil
	}()
	res, err := Run(cfg)
	close(stop)
	if scrapeErr := <-scraped; scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	snap := reg.Snapshot()
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"regions_serve_admitted_total", res.Admitted},
		{"regions_serve_completed_total", res.Completed},
		{"regions_serve_queued_total", res.Queued},
		{`regions_serve_shed_total{reason="queue"}`, res.ShedQueue},
		{`regions_serve_shed_total{reason="oom"}`, res.ShedOOM},
	} {
		got, ok := snap.Counter(tc.name)
		if !ok {
			t.Errorf("counter %s missing from registry", tc.name)
			continue
		}
		if got != tc.want {
			t.Errorf("counter %s = %d, want %d (result %+v)", tc.name, got, tc.want, res)
		}
	}
	if res.ShedOOM == 0 {
		t.Errorf("page-limited run shed nothing via OOM; tighten the test's PageLimit")
	}
	if _, ok := snap.Gauge(`regions_serve_queue_depth{shard="0"}`); !ok {
		t.Error("queue depth gauge missing for shard 0")
	}
	// Every completed session is one observation of its latency and of
	// each of its phases.
	hists := []string{"regions_serve_latency_cycles"}
	for _, k := range trace.SpanKinds() {
		hists = append(hists, fmt.Sprintf(`regions_serve_phase_cycles{phase=%q}`, k))
	}
	for _, name := range hists {
		if h, ok := snap.Histogram(name); !ok || h.Count != uint64(res.Completed) {
			t.Errorf("histogram %s = %+v (present %v), want %d observations", name, h, ok, res.Completed)
		}
	}
}

// TestServePercentilesOrdered sanity-checks the percentiles: monotone,
// nonzero for a run with completions, and consistent with the SLO verdict.
func TestServePercentilesOrdered(t *testing.T) {
	res, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.P50 == 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Errorf("percentiles out of order: p50=%d p99=%d p999=%d", res.P50, res.P99, res.P999)
	}
	if res.SLOPass != (res.P99 <= res.SLOTarget) {
		t.Errorf("SLO verdict %v inconsistent with p99=%d target=%d",
			res.SLOPass, res.P99, res.SLOTarget)
	}
}

// TestSessionHomesCoverEveryShard checks that sessions land on the home
// shards the schedule assigned them, round-robin over every shard.
func TestSessionHomesCoverEveryShard(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin homes mean every shard served an equal share (Sessions
	// divisible by Shards here).
	for _, st := range res.PerShard {
		if got := st.Completed + st.ShedQueue + st.ShedOOM; got != uint64(cfg.Sessions/cfg.Shards) {
			t.Errorf("shard %d handled %d sessions, want %d", st.Shard, got, cfg.Sessions/cfg.Shards)
		}
	}
}

// TestServeDeferredDeleteMatchesSyncChecksum is the serving half of the
// deferred-reclamation equivalence claim: the bulk profile served with
// DeferredDelete must reproduce the synchronous run's checksum bit for bit
// — detach pushes the same free-list entries in the same order, and the
// modelled idle sweeping never touches the allocation address stream —
// while actually sweeping pages and carrying debt mid-run. A second
// deferred run must be byte-identical (determinism).
func TestServeDeferredDeleteMatchesSyncChecksum(t *testing.T) {
	base := Config{Sessions: 400, Seed: 3, Shards: 4, Profile: "bulk", Rate: 6500}
	syncRes, err := Run(base)
	if err != nil {
		t.Fatalf("sync run: %v", err)
	}
	dcfg := base
	dcfg.DeferredDelete = true
	defRes, err := Run(dcfg)
	if err != nil {
		t.Fatalf("deferred run: %v", err)
	}
	if syncRes.Checksum != defRes.Checksum {
		t.Fatalf("checksum diverged: sync %08x, deferred %08x", syncRes.Checksum, defRes.Checksum)
	}
	if !defRes.DeferredDelete {
		t.Error("deferred result not flagged DeferredDelete")
	}
	if defRes.SweptPages == 0 {
		t.Error("deferred run swept no pages; deferral never engaged")
	}
	if defRes.SweepDebtPeakPages == 0 {
		t.Error("deferred run never carried sweep debt; the A/B is vacuous")
	}
	if syncRes.SweptPages != 0 || syncRes.SweepDebtPeakPages != 0 {
		t.Errorf("sync run reports sweep activity: swept %d, peak %d",
			syncRes.SweptPages, syncRes.SweepDebtPeakPages)
	}
	defRes2, err := Run(dcfg)
	if err != nil {
		t.Fatalf("deferred rerun: %v", err)
	}
	if !reflect.DeepEqual(defRes, defRes2) {
		t.Errorf("deferred runs differ across same-seed runs:\n  a: %+v\n  b: %+v", defRes, defRes2)
	}
}

// TestServeDeferredSweepTuning checks the sweep knobs reach the shards: a
// tighter budget means more slices for the same debt, and both runs still
// reproduce the sync checksum and drain to zero debt (Run fails otherwise).
func TestServeDeferredSweepTuning(t *testing.T) {
	base := Config{Sessions: 200, Seed: 5, Shards: 2, Profile: "bulk", Rate: 6500,
		DeferredDelete: true}
	tight := base
	tight.SweepBudget = 1
	tight.SweepHighWater = 4
	a, err := Run(base)
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	b, err := Run(tight)
	if err != nil {
		t.Fatalf("tight budget: %v", err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("sweep tuning changed the checksum: %08x vs %08x", a.Checksum, b.Checksum)
	}
	if a.SweptPages == 0 || b.SweptPages == 0 {
		t.Fatalf("runs swept nothing: default %d, tight %d", a.SweptPages, b.SweptPages)
	}
}

// TestServeUnknownProfileRejected pins the fail-fast validation: a typo'd
// profile name must fail before any session runs.
func TestServeUnknownProfileRejected(t *testing.T) {
	_, err := Run(Config{Sessions: 10, Profile: "no-such-profile"})
	if err == nil {
		t.Fatal("unknown profile accepted")
	}
	if !strings.Contains(err.Error(), "unknown profile") {
		t.Errorf("error %v does not name the unknown profile", err)
	}
}

// TestServeRejectsNonFiniteConfig: a rate, burst factor or resize fraction
// that is NaN, infinite or negative, and a negative count, fails Run with
// an error naming the field. A NaN rate would put every arrival at 2^63
// cycles and an infinite one every arrival at cycle 0, and a negative value
// must not pick the default that zero picks.
func TestServeRejectsNonFiniteConfig(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		for _, c := range []struct {
			field string
			mut   func(*Config)
		}{
			{"Rate", func(c *Config) { c.Rate = v }},
			{"BurstFactor", func(c *Config) { c.BurstEvery, c.BurstLen, c.BurstFactor = 1_000_000, 300_000, v }},
			{"ResizeAfter", func(c *Config) { c.Tenants, c.ResizeTo, c.ResizeAfter = 8, 8, v }},
		} {
			t.Run(fmt.Sprintf("%s=%g", c.field, v), func(t *testing.T) {
				cfg := Config{Sessions: 200, Seed: 1, Shards: 2}
				c.mut(&cfg)
				res, err := Run(cfg)
				if err == nil {
					t.Fatalf("config accepted: makespan %d sim cycles", res.MakespanCycles)
				}
				if !strings.Contains(err.Error(), c.field) {
					t.Errorf("error %q does not name %s", err, c.field)
				}
			})
		}
	}
	for _, c := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Shards", func(c *Config) { c.Shards = -1 }},
		{"MaxQueue", func(c *Config) { c.MaxQueue = -1 }},
		{"PageLimit", func(c *Config) { c.PageLimit = -1 }},
		{"SweepBudget", func(c *Config) { c.DeferredDelete, c.SweepBudget = true, -1 }},
		{"SweepHighWater", func(c *Config) { c.DeferredDelete, c.SweepHighWater = true, -1 }},
		{"Tenants", func(c *Config) { c.Tenants = -1 }},
		{"ResizeTo", func(c *Config) { c.Tenants, c.ResizeTo = 8, -1 }},
		{"TopSlow", func(c *Config) { c.Spans, c.TopSlow = true, -1 }},
	} {
		t.Run(c.field+"=-1", func(t *testing.T) {
			cfg := Config{Sessions: 200, Seed: 1, Shards: 2}
			c.mut(&cfg)
			if res, err := Run(cfg); err == nil {
				t.Fatalf("config accepted: makespan %d sim cycles", res.MakespanCycles)
			} else if !strings.Contains(err.Error(), c.field+" must not be negative") {
				t.Errorf("error %q does not name %s", err, c.field)
			}
		})
	}
}

// TestOverloadErrorChains is the table-driven audit of the shed-error
// contract: every OverloadError matches ErrOverload via errors.Is and
// unwraps via errors.As; OOM-caused sheds additionally match
// mem.ErrOutOfMemory through the runtime's *Fault chain, queue sheds must
// not.
func TestOverloadErrorChains(t *testing.T) {
	oomCause := fmt.Errorf("session aborted: %w", &mem.OOMError{Op: "core: ralloc", Pages: 1})
	cases := []struct {
		name    string
		err     error
		wantOOM bool
	}{
		{"queue-shed", &OverloadError{Session: 7, Shard: 1, Reason: "queue full"}, false},
		{"oom-shed", &OverloadError{Session: 9, Shard: 2, Reason: "out of memory", Err: oomCause}, true},
		{"wrapped-queue-shed", fmt.Errorf("serving: %w", &OverloadError{Session: 3, Shard: 0, Reason: "queue full"}), false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if !errors.Is(tc.err, ErrOverload) {
				t.Fatalf("errors.Is(err, ErrOverload) = false: %v", tc.err)
			}
			var oe *OverloadError
			if !errors.As(tc.err, &oe) {
				t.Fatalf("errors.As(*OverloadError) = false: %v", tc.err)
			}
			if got := errors.Is(tc.err, mem.ErrOutOfMemory); got != tc.wantOOM {
				t.Fatalf("errors.Is(err, ErrOutOfMemory) = %v, want %v (%v)", got, tc.wantOOM, tc.err)
			}
			if oe.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestTaskFailureNamesSession: every session on a shard runs through the
// shard's one task value, yet a session whose task panics fails the run
// with an error naming that session.
func TestTaskFailureNamesSession(t *testing.T) {
	if err := failingRun(); err == nil || !strings.Contains(err.Error(), "session 3:") {
		t.Fatalf("err = %v, want a task failure naming session 3", err)
	}
}

// failingRun serves six sessions on two shards, the way Run does, with
// session 3's task made to panic, and returns the report's error.
func failingRun() error {
	cfg := Config{Sessions: 6, Seed: 1, Shards: 2}.withDefaults()
	sv := newServer(cfg)
	sv.startEngine()
	for _, st := range sv.states {
		serve := st.task.Run
		st.task.Run = func(env appkit.RegionEnv) uint32 {
			if st.cur.id == 3 {
				st.cur.prof = nil // lifecycle reads the profile: the task panics
			}
			return serve(env)
		}
	}
	sv.serve(0, cfg.Sessions)
	_, err := sv.report()
	return err
}

// TestServeRunsShardsAtOnce: the shards of a run serve at once, each on a
// goroutine of its own (shard 0 on the caller's). Each shard's first
// session waits at a rendezvous until the other shard's first session has
// started, which never happens if sessions run on one goroutine or one
// shard at a time.
func TestServeRunsShardsAtOnce(t *testing.T) {
	cfg := Config{Sessions: 200, Seed: 1, Shards: 2}.withDefaults()
	sv := newServer(cfg)
	sv.startEngine()
	var started [2]chan struct{}
	var once [2]sync.Once
	var alone atomic.Bool
	for i, st := range sv.states {
		started[i] = make(chan struct{})
		serve := st.task.Run
		st.task.Run = func(env appkit.RegionEnv) uint32 {
			once[i].Do(func() {
				close(started[i])
				select {
				case <-started[1-i]:
				case <-time.After(5 * time.Second):
					alone.Store(true)
				}
			})
			return serve(env)
		}
	}
	sv.serve(0, cfg.Sessions)
	res, err := sv.report()
	if err != nil {
		t.Fatal(err)
	}
	if alone.Load() {
		t.Error("a shard's first session waited 5 s for the other shard's to start: the shards do not serve at once")
	}
	for _, ps := range res.PerShard {
		if ps.Admitted+ps.ShedQueue == 0 {
			t.Errorf("shard %d served no session", ps.Shard)
		}
	}
}

// TestNoGoroutineOutlivesRun: a run leaves no goroutine behind, whether it
// serves in one phase, in two around a resize, or fails on a task panic. A
// goroutine that has signalled its exit may take a moment to be gone, so
// the count is polled for up to a second; a goroutine blocked for good is
// still there after it.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"plain", func() error {
			_, err := Run(Config{Sessions: 300, Seed: 1, Shards: 2})
			return err
		}},
		{"resize", func() error {
			_, err := Run(Config{Sessions: 300, Seed: 1, Shards: 2, Tenants: 6, ResizeTo: 4, ResizeAfter: 0.5})
			return err
		}},
		{"task-failure", func() error {
			if err := failingRun(); err == nil {
				return errors.New("the failing run succeeded")
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the run, %d after", before, after)
			}
		})
	}
}

// TestHostAllocsPerSession gates the serving path's host allocations: a
// two-shard strheavy run allocates a bounded number of Go objects and bytes
// per session. Each shard draws the schedule a session at a time, has one
// task and a fixed modelled queue, and region states (string-pool tables
// included) and region list slots are reused, so what a session adds is
// its two Region handles and its latency word, plus, under Spans, its
// phase record in one slice. The marginal subtest compares two schedule
// lengths, so set-up cancels out: a session costs two 16-byte handles and
// 8 bytes.
func TestHostAllocsPerSession(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	config := func(sessions int, spans bool) Config {
		return Config{Sessions: sessions, Seed: 1, Shards: 2, Rate: 500, Profile: "strheavy", Spans: spans}
	}
	const sessions = 10_000
	for _, c := range []struct {
		name              string
		spans             bool
		maxObjs, maxBytes float64
	}{
		// About 25% above the 56 and 313 bytes measured.
		{"plain", false, 2.2, 70},
		{"spans", true, 2.2, 390},
	} {
		t.Run(c.name, func(t *testing.T) {
			objs, bytes := hostAllocs(t, config(sessions, c.spans))
			objs, bytes = objs/sessions, bytes/sessions
			t.Logf("%.2f objects, %.0f bytes per session", objs, bytes)
			if objs > c.maxObjs {
				t.Errorf("%.2f Go objects allocated per session, want at most %g", objs, c.maxObjs)
			}
			if bytes > c.maxBytes {
				t.Errorf("%.0f bytes allocated per session, want at most %g", bytes, c.maxBytes)
			}
		})
	}
	t.Run("marginal", func(t *testing.T) {
		const long = 4 * sessions
		_, short := hostAllocs(t, config(sessions, false))
		_, all := hostAllocs(t, config(long, false))
		per := (all - short) / (long - sessions)
		const floor = 2*16 + 8 // two Region handles and a latency word
		t.Logf("%.1f bytes per added session; the floor is %d", per, floor)
		if per > floor+8 {
			t.Errorf("an added session allocates %.1f bytes, want at most %d", per, floor+8)
		}
	})
}

// hostAllocs runs cfg and returns the Go objects and bytes the run
// allocated.
func hostAllocs(t *testing.T, cfg Config) (objs, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestHostAllocsSetup gates what every run pays whatever its length: the
// Go bytes of a one-session Run (engine, shard runtimes, drain, Verify and
// close), for the default mix and for bulk with deferred deletion. A shard
// maps a batch of pages it hardly touches, and pages nobody writes share
// mem's zero and poison pages, so set-up backs almost none of them.
func TestHostAllocsSetup(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		maxKB float64
	}{
		// 38.1 and 106.0 KB measured, each shard's arrival stream
		// included; each shard backing its mapped batch read 315 and
		// 868 KB.
		{"mix", Config{Sessions: 1, Seed: 1, Shards: 2, Rate: 350}, 41},
		{"bulk", Config{Sessions: 1, Seed: 1, Shards: 2, Rate: 3250, Profile: "bulk", DeferredDelete: true}, 125},
	} {
		t.Run(c.name, func(t *testing.T) {
			least := math.Inf(1)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Run(c.cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/1024)
			}
			t.Logf("%.1f KB per one-session run", least)
			if least > c.maxKB {
				t.Errorf("a one-session run allocates %.1f KB, want at most %g", least, c.maxKB)
			}
		})
	}
}

// TestHostAllocsRegisterCleanups: registering a shard's cleanups on a fresh
// runtime allocates the id slice and the runtime's cleanup table once each,
// not a table that doubles its way up to the 24 entries.
func TestHostAllocsRegisterCleanups(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 50
	rts := make([]*core.Runtime, runs+1) // AllocsPerRun adds a warm-up run
	for i := range rts {
		rts[i] = core.NewRuntime(mem.NewSpace(&stats.Counters{}), true)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		registerCleanups(rts[next])
		next++
	})
	if allocs > 3 {
		t.Errorf("registerCleanups on a fresh runtime makes %.0f allocations, want at most 3", allocs)
	}
}

// TestRegisterCleanupsOncePerSite: registerCleanups registers every
// non-string site of every profile exactly once, in profile order (the
// default six, then bulk, then strheavy; parse sites before work sites),
// then the tenant-state site, each under its name and with its object
// size, and every site's cln finds its own registration. Cleanup ids, and
// so object header words, depend on this order.
func TestRegisterCleanupsOncePerSite(t *testing.T) {
	want := []string{
		"cfrac/itom", "cfrac/limb", "cfrac/mult", "cfrac/rem",
		"grobner/term", "grobner/coef", "grobner/pair",
		"mudlle/node", "mudlle/code", "mudlle/value",
		"lcc/node", "lcc/quad", "lcc/sym",
		"tile/count", "tile/block", "tile/score",
		"moss/passage", "moss/fp", "moss/match",
		"bulk/header", "bulk/index",
		"strheavy/hdr", "strheavy/sym",
		tenantSite,
	}
	rt := core.NewRuntime(mem.NewSpace(&stats.Counters{}), true)
	ids := registerCleanups(rt)
	if len(ids) != len(want) || len(cleanupSites) != len(want) {
		t.Fatalf("%d ids and %d sites, want %d", len(ids), len(cleanupSites), len(want))
	}
	sizes := map[string]int{tenantSite: tenantNodeSize}
	for _, p := range profiles {
		for _, sc := range append(append([]site(nil), p.parse...), p.work...) {
			if sc.kind == allocStr {
				continue
			}
			if got := cleanupSites[sc.cln].name; got != sc.name {
				t.Errorf("%s site %s indexes %s", p.Name, sc.name, got)
			}
			sizes[sc.name] = sc.size
		}
	}
	// One object per id, then the heap census names each by its cleanup.
	r := rt.NewRegion()
	for i, name := range want {
		if cleanupSites[i].name != name || ids[i] != core.CleanupID(i+1) {
			t.Errorf("registration %d is %s with id %d, want %s with id %d", i, cleanupSites[i].name, ids[i], name, i+1)
		}
		rt.Ralloc(r, sizes[name], ids[i])
	}
	if i := tenantCln; cleanupSites[i].name != tenantSite {
		t.Errorf("tenantCln %d names %s", i, cleanupSites[i].name)
	}
	rep, err := rt.HeapReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sites) != len(want) {
		t.Errorf("heap census has %d sites, want %d", len(rep.Sites), len(want))
	}
	for _, s := range rep.Sites {
		if s.Objects != 1 || s.Bytes != uint64(sizes[s.Site]) {
			t.Errorf("site %s: %d objects of %d bytes, want 1 of %d", s.Site, s.Objects, s.Bytes, sizes[s.Site])
		}
	}
}
