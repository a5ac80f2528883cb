// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5). Each BenchmarkTableN / BenchmarkFigureN renders the full
// artifact once per iteration at a reduced workload; the per-application
// benchmarks measure single (app, allocator) cells and report the modelled
// simulated cycles alongside wall-clock time.
//
// Paper-sized runs: go run ./cmd/regionbench -scale-div 1 -all
package regions_test

import (
	"fmt"
	"io"
	"testing"

	"regions"
	"regions/internal/apps/appkit"
	"regions/internal/bench"
)

// benchDiv shrinks workloads so `go test -bench .` completes quickly while
// exercising every experiment's full code path.
const benchDiv = 24

func BenchmarkTable1Diff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard)
	}
}

func BenchmarkTable2Regions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, bench.NewSuite(benchDiv))
	}
}

func BenchmarkTable3Malloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(io.Discard, bench.NewSuite(benchDiv))
	}
}

func BenchmarkFigure8MemoryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure8(io.Discard, bench.NewSuite(benchDiv))
	}
}

func BenchmarkFigure9ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure9(io.Discard, bench.NewSuite(benchDiv))
	}
}

func BenchmarkFigure10Stalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure10(io.Discard, bench.NewSuite(benchDiv))
	}
}

func BenchmarkFigure11CostOfSafety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Figure11(io.Discard, bench.NewSuite(benchDiv))
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Ablations(io.Discard, bench.NewSuite(benchDiv))
	}
}

// BenchmarkApps measures every (application, environment) cell of Figures
// 8-9 individually: the four malloc allocators, the conservative collector,
// and the safe and unsafe region libraries.
func BenchmarkApps(b *testing.B) {
	for _, app := range bench.Apps() {
		app := app
		scale := app.DefaultScale / benchDiv
		if scale < 1 {
			scale = 1
		}
		for _, kind := range appkit.MallocKinds {
			kind := kind
			b.Run(app.Name+"/"+kind, func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					if app.UsesEmulation {
						e := appkit.NewRegionEnv("emu:"+kind, appkit.Config{})
						app.Region(e, scale)
						c := e.Counters()
						cycles = c.TotalCycles()
					} else {
						e := appkit.NewMallocEnv(kind, appkit.Config{})
						app.Malloc(e, scale)
						c := e.Counters()
						cycles = c.TotalCycles()
					}
				}
				b.ReportMetric(float64(cycles)/1e6, "Mcycles/op")
			})
		}
		for _, kind := range []string{"safe", "unsafe"} {
			kind := kind
			b.Run(app.Name+"/regions-"+kind, func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					e := appkit.NewRegionEnv(kind, appkit.Config{})
					app.Region(e, scale)
					c := e.Counters()
					cycles = c.TotalCycles()
				}
				b.ReportMetric(float64(cycles)/1e6, "Mcycles/op")
			})
		}
	}
}

// BenchmarkAlloc measures the wall-clock cost of the allocation fast path
// with observability disabled (the shipping configuration: one nil check
// per operation) against runs with a tracer and with a metrics registry
// attached. The bare variant is the acceptance gate for the observability
// layers: it must stay within noise of the pre-observability runtime.
func BenchmarkAlloc(b *testing.B) {
	run := func(b *testing.B, t *regions.Tracer, m *regions.MetricsRegistry) {
		sys := regions.New()
		sys.SetTracer(t)
		sys.SetMetrics(m)
		cln := sys.SizeCleanup(16)
		r := sys.NewRegion()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Ralloc(r, 16, cln)
			if i%4096 == 4095 { // keep the region from growing unboundedly
				sys.DeleteRegion(r)
				r = sys.NewRegion()
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, nil, nil) })
	b.Run("traced", func(b *testing.B) { run(b, regions.NewTracer(1<<16), nil) })
	b.Run("metered", func(b *testing.B) { run(b, nil, regions.NewMetricsRegistry()) })
}

// TestAllocFastPathAllocsPerRun gates the allocation fast path: amortized
// over region rotation, an Ralloc must cost (well) under a quarter of a Go
// heap allocation — the bump-pointer path itself allocates nothing; only
// page and region bookkeeping every few thousand operations does. The same
// budget must hold with a metrics registry attached: the hot counters are
// pre-created atomics, so metering adds arithmetic, not Go allocations.
func TestAllocFastPathAllocsPerRun(t *testing.T) {
	for _, metered := range []bool{false, true} {
		name := "bare"
		if metered {
			name = "metered"
		}
		t.Run(name, func(t *testing.T) {
			sys := regions.New()
			if metered {
				sys.SetMetrics(regions.NewMetricsRegistry())
			}
			cln := sys.SizeCleanup(16)
			r := sys.NewRegion()
			i := 0
			avg := testing.AllocsPerRun(20000, func() {
				sys.Ralloc(r, 16, cln)
				i++
				if i%4096 == 0 {
					sys.DeleteRegion(r)
					r = sys.NewRegion()
				}
			})
			if avg >= 0.25 {
				t.Fatalf("alloc fast path costs %.3f Go allocs/op, want < 0.25", avg)
			}
		})
	}
}

// TestMeteredCountersUnchanged is the observability layers' core contract:
// attaching a tracer and a metrics registry must not change the simulated
// machine. A workload run bare and run fully instrumented must report
// identical stats.Counters, cycle for cycle.
func TestMeteredCountersUnchanged(t *testing.T) {
	bare := regions.New()
	meteredWorkload(t, bare)

	instrumented := regions.New()
	instrumented.SetTracer(regions.NewTracer(1 << 12))
	reg := regions.NewMetricsRegistry()
	instrumented.SetMetrics(reg)
	meteredWorkload(t, instrumented)

	if *bare.Counters() != *instrumented.Counters() {
		t.Errorf("instrumented counters differ from bare run:\nbare:         %+v\ninstrumented: %+v",
			*bare.Counters(), *instrumented.Counters())
	}
	snap := reg.Snapshot()
	// 5 allocations per loop iteration: three rallocs, one rstralloc, one
	// rarrayalloc.
	if v, _ := snap.Counter("regions_core_allocs_total"); v != 200*5 {
		t.Errorf("regions_core_allocs_total = %d, want %d", v, 200*5)
	}
	if v, _ := snap.Counter("regions_core_barrier_sameregion_total"); v == 0 {
		t.Error("sameregion barrier counter never incremented")
	}
	if _, err := instrumented.HeapProfile(); err != nil {
		t.Errorf("HeapProfile after workload: %v", err)
	}
}

// BenchmarkRegionOf measures the public page→region lookup (backed by the
// dense page-index array) against a hash-map replica of the same relation,
// over an identical pointer stream.
func BenchmarkRegionOf(b *testing.B) {
	sys := regions.New()
	cln := sys.SizeCleanup(64)
	var ptrs []regions.Ptr
	for i := 0; i < 64; i++ {
		r := sys.NewRegion()
		for j := 0; j < 32; j++ {
			ptrs = append(ptrs, sys.Ralloc(r, 64, cln))
		}
	}
	b.Run("dense", func(b *testing.B) {
		var sink *regions.Region
		for i := 0; i < b.N; i++ {
			sink = sys.RegionOf(ptrs[i%len(ptrs)])
		}
		_ = sink
	})
	b.Run("map", func(b *testing.B) {
		const pageShift = 12
		replica := make(map[uint32]*regions.Region, len(ptrs))
		for _, p := range ptrs {
			replica[uint32(p>>pageShift)] = sys.RegionOf(p)
		}
		b.ResetTimer()
		var sink *regions.Region
		for i := 0; i < b.N; i++ {
			sink = replica[uint32(ptrs[i%len(ptrs)]>>pageShift)]
		}
		_ = sink
	})
}

// BenchmarkShardThroughput runs the six apps through the shard engine at
// increasing shard counts; compare the reported sim-Mcycles/op (the
// simulated makespan) across sub-benchmarks to see the modelled scaling.
func BenchmarkShardThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunThroughputOpts(shards, benchDiv, 2, bench.ThroughputOpts{})
				if err != nil {
					b.Fatal(err)
				}
				makespan = r.SimMakespanMcycles
			}
			b.ReportMetric(makespan, "sim-Mcycles/op")
		})
	}
}

// BenchmarkCorePrimitives measures the region runtime's primitive costs.
func BenchmarkCorePrimitives(b *testing.B) {
	b.Run("ralloc16", func(b *testing.B) {
		e := appkit.NewRegionEnv("safe", appkit.Config{})
		cln := e.SizeCleanup(16)
		r := e.NewRegion()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Ralloc(r, 16, cln)
			if i%4096 == 4095 { // keep the region from growing unboundedly
				e.DeleteRegion(r)
				r = e.NewRegion()
			}
		}
	})
	b.Run("region-write-barrier", func(b *testing.B) {
		e := appkit.NewRegionEnv("safe", appkit.Config{})
		cln := e.SizeCleanup(16)
		r := e.NewRegion()
		p := e.Ralloc(r, 16, cln)
		q := e.Ralloc(r, 16, cln)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.StorePtr(p, q)
		}
	})
	b.Run("new-delete-region", func(b *testing.B) {
		e := appkit.NewRegionEnv("safe", appkit.Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := e.NewRegion()
			if !e.DeleteRegion(r) {
				b.Fatal("delete failed")
			}
		}
	})
}
