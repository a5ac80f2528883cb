package main

import (
	"fmt"

	"regions/internal/metrics"
)

// workloadNames lists the workloads in the order -workload all runs them.
// README.md records why each was chosen.
var workloadNames = []string{"paper-apps", "serve-mix", "serve-bulk", "serve-strheavy"}

// pinned are the checksums of the full-size workloads: each paper
// application's result, which no seed changes (the seed moves only the heap
// base), and each serving mix's Result.Checksum at seed 1.
var pinned = map[string]uint32{
	"cfrac":          0xf6cf395c,
	"grobner":        0x9e63da80,
	"mudlle":         0x0ef35fbd,
	"lcc":            0x9f62c362,
	"tile":           0x657a334a,
	"moss":           0x6cd8d2cd,
	"serve-mix":      0x26195f70,
	"serve-bulk":     0x7773c8d8,
	"serve-strheavy": 0xf20f64ee,
}

// newWorkload builds the named workload's inputs from seed. scaleDiv 1 is
// the full size; larger divisors shrink every workload for tests, and only
// the full size is checked against the pinned checksums.
func newWorkload(name string, seed int64, scaleDiv int) (workload, error) {
	switch name {
	case "paper-apps":
		return newPaperApps(seed, scaleDiv), nil
	case "serve-mix":
		return newServeMix(name, "", false, 350, 50_000, seed, scaleDiv), nil
	case "serve-bulk":
		return newServeMix(name, "bulk", true, 3250, 5_000, seed, scaleDiv), nil
	case "serve-strheavy":
		return newServeMix(name, "strheavy", false, 500, 25_000, seed, scaleDiv), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// registryLayers sets the per-layer metrics every workload reads from its
// metrics registry.
func registryLayers(res *result, s *metrics.Snapshot) {
	c := func(name string) float64 {
		v, _ := s.Counter(name)
		return float64(v)
	}
	res.layer("core.allocs", c("regions_core_allocs_total"))
	res.layer("core.alloc_bytes", c("regions_core_alloc_bytes_total"))
	res.layer("core.regions_created", c("regions_core_regions_created_total"))
	res.layer("core.delete_fails", c("regions_core_region_delete_fails_total"))
	res.layer("core.barriers_region", c("regions_core_barrier_region_total"))
	res.layer("core.barriers_sameregion", c("regions_core_barrier_sameregion_total"))
	res.layer("core.barriers_global", c("regions_core_barrier_global_total"))
	res.layer("core.frames_scanned", c("regions_core_stack_scans_total"))
	hits := c("regions_core_lrcache_hits_total")
	res.layer("core.lrcache_hit_ratio", ratio(hits, hits+c("regions_core_lrcache_misses_total")))
	res.layer("core.pages_acquired", c("regions_core_pages_acquired_total"))
	res.layer("core.pages_released", c("regions_core_pages_released_total"))
	reuse := c("regions_str_reuse_total")
	res.layer("core.str_reuse_ratio", ratio(reuse, reuse+c("regions_str_new_total")))
	res.layer("core.swept_pages", c("regions_swept_pages_total"))
	res.layer("core.sweep_slices", c("regions_sweep_slices_total"))
	res.layer("mem.map_calls", c("regions_mem_map_calls_total"))
	res.layer("mem.pages_mapped", c("regions_mem_pages_mapped_total"))
}

// hostLayerMetrics sets each layer's host_pct.
func hostLayerMetrics(res *result, h *hostShares) {
	for _, l := range hostLayers {
		res.layer(l+".host_pct", h.pct(l))
	}
}
