package shard

import (
	"bytes"
	"testing"
	"time"

	"regions/internal/apps/appkit"
	"regions/internal/metrics"
)

// blobTask is a request that allocates multi-page blobs in a fresh region,
// folds them into a checksum, and deletes the region. Under DeferredDelete
// the delete only detaches the pages; the allocation tax and the
// close-time drain sweep them behind later tasks.
func blobTask(seed uint32) Task {
	return Task{
		Name: "blob",
		Run: func(e appkit.RegionEnv) uint32 {
			sp := e.Space()
			r := e.NewRegion()
			cln := e.SizeCleanup(16)
			sum := seed
			for i := 0; i < 3; i++ {
				b := e.RstrAlloc(r, 8000)
				sp.Store(b, seed+uint32(i))
				sum = sum*31 + sp.Load(b)
			}
			p := e.Ralloc(r, 16, cln)
			sp.Store(p, sum)
			sum = sum*31 + sp.Load(p)
			if !e.DeleteRegion(r) {
				panic("blob task: region not deletable")
			}
			return sum
		},
	}
}

// TestDeferredSweepRacesDeletes runs task-driven deletions under deferred
// reclamation with the race detector on, in two interleavings: a flooded
// unpinned submission that Close dispatches (debt is cancelled by reuse or
// drained at close) and a paced pinned submission whose idle gaps let
// workers sleep with debt outstanding between tasks. A shared metrics
// registry is scraped concurrently throughout, like a live /metrics
// endpoint. Both deferred interleavings must produce the synchronous run's
// checksum, end with zero debt, and leave every shard's heap invariants
// intact.
func TestDeferredSweepRacesDeletes(t *testing.T) {
	const tasks = 240
	run := func(deferred, paced bool) uint32 {
		reg := metrics.NewRegistry()
		engOpts := []Option{WithShards(4), WithMetrics(reg)}
		if deferred {
			engOpts = append(engOpts, WithDeferredDelete(2, 0))
		}
		eng := NewEngine(engOpts...)
		stop := make(chan struct{})
		scraperDone := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					scraperDone <- nil
					return
				default:
					if err := metrics.WritePrometheus(bytes.NewBuffer(nil), reg.Snapshot()); err != nil {
						scraperDone <- err
						return
					}
				}
			}
		}()
		for i := 0; i < tasks; i++ {
			tk := blobTask(uint32(i))
			tk.Pin = paced // pinned tasks run as they arrive; unpinned ones wait for Close
			eng.Submit(tk)
			if paced && i%8 == 7 {
				time.Sleep(time.Millisecond) // idle window: workers sleep in debt
			}
		}
		agg := eng.Close()
		close(stop)
		if err := <-scraperDone; err != nil {
			t.Fatalf("scraper (deferred=%v paced=%v): %v", deferred, paced, err)
		}
		if agg.Tasks != tasks || agg.Failures != 0 {
			t.Fatalf("deferred=%v paced=%v: ran %d tasks with %d failures", deferred, paced, agg.Tasks, agg.Failures)
		}
		var swept uint64
		for i := 0; i < eng.Shards(); i++ {
			rt := eng.Env(i).Runtime()
			if d := rt.SweepDebt(); d != 0 {
				t.Fatalf("deferred=%v paced=%v: shard %d holds %d pages of sweep debt after Close", deferred, paced, i, d)
			}
			if err := rt.Verify(); err != nil {
				t.Fatalf("deferred=%v paced=%v: shard %d invariants: %v", deferred, paced, i, err)
			}
			swept += rt.SweptPages()
		}
		if deferred && swept == 0 {
			t.Fatalf("paced=%v: deferred run swept no pages; deferral never engaged", paced)
		}
		for _, s := range agg.PerShard {
			if s.SweepDebtPeak < 0 {
				t.Fatalf("negative sweep-debt peak %d", s.SweepDebtPeak)
			}
		}
		return agg.Checksum
	}

	want := run(false, false)
	if got := run(true, false); got != want {
		t.Fatalf("flooded deferred checksum %#x, sync %#x — deferral changed results", got, want)
	}
	if got := run(true, true); got != want {
		t.Fatalf("paced deferred checksum %#x, sync %#x — pacing changed results", got, want)
	}
}
