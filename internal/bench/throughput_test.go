package bench

import (
	"reflect"
	"testing"

	"regions/internal/metrics"
)

// simOnly drops a throughput result's host timings, leaving the fields
// that must be exact.
func simOnly(r ThroughputResult) ThroughputResult {
	r.WallSeconds, r.TasksPerSec = 0, 0
	return r
}

// TestThroughputSweepScalesAndAgrees runs the whole-app workload at 1, 2,
// and 4 shards at a small scale, twice: the two sweeps must agree exactly
// in every simulated field, the aggregate checksum must be
// placement-independent, and the simulated makespan must shrink with shard
// count (the modelled scaling the engine exists for).
func TestThroughputSweepScalesAndAgrees(t *testing.T) {
	var sweeps [2][]ThroughputResult
	for i := range sweeps {
		results, err := ThroughputSweepOpts(48, 2, []int{1, 2, 4}, ThroughputOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 3 {
			t.Fatalf("got %d results, want 3", len(results))
		}
		for j := range results {
			results[j] = simOnly(results[j])
		}
		sweeps[i] = results
	}
	if !reflect.DeepEqual(sweeps[0], sweeps[1]) {
		t.Fatalf("two sweeps differ:\n%+v\n%+v", sweeps[0], sweeps[1])
	}
	results := sweeps[0]
	for _, r := range results[1:] {
		if r.Checksum != results[0].Checksum {
			t.Fatalf("checksum at %d shards differs", r.Shards)
		}
	}
	if s := results[1].SimSpeedup; s < 1.5 {
		t.Fatalf("2-shard simulated speedup %.2f, want >= 1.5", s)
	}
	if s := results[2].SimSpeedup; s < 2 {
		t.Fatalf("4-shard simulated speedup %.2f, want >= 2", s)
	}
}

// TestThroughputMetricsAttachAndAgree runs the same workload bare and with
// a metrics registry: the simulated results must be identical (metrics are
// host-side only) and the registry's counters must describe the run.
func TestThroughputMetricsAttachAndAgree(t *testing.T) {
	bare, err := RunThroughputOpts(1, 48, 2, ThroughputOpts{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	metered, err := RunThroughputOpts(1, 48, 2, ThroughputOpts{Metrics: reg, HeapProfileEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(simOnly(metered), simOnly(bare)) {
		t.Errorf("metered run diverged:\n%+v\nbare:\n%+v", simOnly(metered), simOnly(bare))
	}
	snap := reg.Snapshot()
	if got := snap.CounterSum("regions_shard_tasks_total"); got != uint64(metered.Tasks) {
		t.Errorf("shard task counters sum to %d, want %d", got, metered.Tasks)
	}
	if v, _ := snap.Counter("regions_core_allocs_total"); v == 0 {
		t.Error("core alloc counter empty after a metered throughput run")
	}
	if v, ok := snap.Gauge("regions_shard_utilization_pct"); !ok || v <= 0 {
		t.Errorf("utilization gauge = %d,%v", v, ok)
	}
}

// TestImbalanceIsExact runs the skewed A/B twice at a small scale: the two
// runs must agree exactly, the static side must steal nothing, and the
// stealing side must steal and finish sooner.
func TestImbalanceIsExact(t *testing.T) {
	var runs [2]*ImbalanceResult
	for i := range runs {
		r, err := RunImbalance(4, 12, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two imbalance runs differ:\n%+v\n%+v", runs[0], runs[1])
	}
	r := runs[0]
	if r.NoSteal.Steals != 0 || r.Steal.Steals == 0 {
		t.Errorf("steals: static %d, stealing %d; want 0 and some", r.NoSteal.Steals, r.Steal.Steals)
	}
	if r.Steal.SimMakespanMcycles >= r.NoSteal.SimMakespanMcycles {
		t.Errorf("stealing makespan %.6f Mcycles, static %.6f: stealing did not help",
			r.Steal.SimMakespanMcycles, r.NoSteal.SimMakespanMcycles)
	}
}

// TestBenchReportEmbedsMetrics locks the report schema consumed from the
// checked-in artifact: version 2, with the sweep's final metrics snapshot.
func TestBenchReportEmbedsMetrics(t *testing.T) {
	rep, err := BuildBenchReportOpts(96, 1, ThroughputOpts{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "regions-bench/v2" || rep.SchemaVersion != ReportSchemaVersion {
		t.Errorf("schema = %q version %d, want regions-bench/v2 version %d",
			rep.Schema, rep.SchemaVersion, ReportSchemaVersion)
	}
	if rep.Metrics == nil {
		t.Fatal("report has no embedded metrics snapshot")
	}
	if rep.Metrics.SchemaVersion != metrics.SnapshotSchemaVersion {
		t.Errorf("embedded snapshot schema_version = %d", rep.Metrics.SchemaVersion)
	}
	if v, _ := rep.Metrics.Counter("regions_core_allocs_total"); v == 0 {
		t.Error("embedded snapshot has no allocation counts")
	}
}
