package core

import (
	"runtime"
	"testing"
	"time"

	"regions/internal/mem"
	"regions/internal/metrics"
	"regions/internal/stats"
)

// TestSetMetricsDetachRemovesSource: SetMetrics(nil) takes the runtime's
// series out of the registry, its histograms together with its counters.
func TestSetMetricsDetachRemovesSource(t *testing.T) {
	reg := metrics.NewRegistry()
	rt, _ := newRT(true)
	rt.SetMetrics(reg)
	rt.Ralloc(rt.NewRegion(), 16, rt.SizeCleanup(16))
	snap := reg.Snapshot()
	if v, _ := snap.Counter("regions_core_allocs_total"); v != 1 {
		t.Fatalf("attached runtime reports %d allocations, want 1", v)
	}
	if h, ok := snap.Histogram("regions_core_alloc_size_bytes"); !ok || h.Count != 1 || h.Sum != 16 {
		t.Fatalf("attached runtime's alloc-size histogram = %+v, want one 16-byte allocation", h)
	}
	rt.SetMetrics(nil)
	snap = reg.Snapshot()
	if _, ok := snap.Counter("regions_core_allocs_total"); ok {
		t.Error("a detached runtime still reports its counters")
	}
	if h, ok := snap.Histogram("regions_core_alloc_size_bytes"); ok {
		t.Errorf("a detached runtime still reports its alloc-size histogram: %+v", h)
	}
}

// TestRegistryDoesNotKeepHeapAlive: the registry's source holds the
// runtime's counts, not the runtime, so a finished runtime's simulated
// memory is collectable while the registry lives on.
func TestRegistryDoesNotKeepHeapAlive(t *testing.T) {
	reg := metrics.NewRegistry()
	freed := make(chan struct{})
	func() {
		sp := mem.NewSpace(&stats.Counters{})
		rt := NewRuntimeOpts(sp, Options{Safe: true})
		rt.SetMetrics(reg)
		rt.Ralloc(rt.NewRegion(), 16, rt.SizeCleanup(16))
		runtime.SetFinalizer(sp, func(*mem.Space) { close(freed) })
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if v, _ := reg.Snapshot().Counter("regions_core_allocs_total"); v != 1 {
				t.Errorf("registry reads %d allocations after the runtime was freed, want 1", v)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the registry keeps a finished runtime's heap reachable")
		}
	}
}
