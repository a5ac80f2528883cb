package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file defines the heap profiler's report types. The data is produced
// by the region runtime's verifier walk (internal/core builds a HeapReport
// while auditing page lists and object headers — see core.Runtime.HeapReport)
// and consumed here: top-N ranking, a human-readable text report, and JSON.
// The types live in this package so that core can depend on metrics without
// a cycle, and so every exposition surface (regionstat, regionbench's /heap
// endpoint) shares one schema.

// HeapSchemaVersion is the schema_version stamped on every HeapReport.
// Version 2 added the string-pool decomposition term (StrPoolBytes,
// StrPoolBlocks, and the HeapStrPool section).
const HeapSchemaVersion = 2

// RegionHeap is one region's footprint, decomposed exactly:
//
//	CapacityBytes = LiveBytes + BookkeepingBytes + FreeBytes
//	              + StrPoolBytes + FragBytes
//
// LiveBytes is program-requested data (NormalBytes in the scanned allocator
// plus StringBytes in the string allocator). BookkeepingBytes is runtime
// overhead: page-link words, the region structure and its coloring offset,
// and object headers. FreeBytes is still allocatable by the bump pointers
// (the head pages' remaining space); StrPoolBytes is freed string-allocator
// capacity parked on the region's class free lists, allocatable by the
// pooled string path; FragBytes is internal fragmentation — slack no future
// allocation in this region can use (abandoned page tails, multi-page-span
// padding).
type RegionHeap struct {
	ID          int32 `json:"id"`
	Pages       int   `json:"pages"`
	NormalPages int   `json:"normalPages"`
	StringPages int   `json:"stringPages"`

	CapacityBytes    uint64 `json:"capacityBytes"`
	LiveBytes        uint64 `json:"liveBytes"`
	NormalBytes      uint64 `json:"normalBytes"`
	StringBytes      uint64 `json:"stringBytes"`
	BookkeepingBytes uint64 `json:"bookkeepingBytes"`
	FreeBytes        uint64 `json:"freeBytes"`
	StrPoolBytes     uint64 `json:"strPoolBytes,omitempty"`
	StrPoolBlocks    int    `json:"strPoolBlocks,omitempty"`
	FragBytes        uint64 `json:"fragBytes"`

	Objects uint64 `json:"objects"` // live objects with headers (normal allocator)
	Allocs  uint64 `json:"allocs"`  // lifetime allocation count, all allocators

	// OccupancyPct is live data as a percentage of capacity.
	OccupancyPct float64 `json:"occupancyPct"`
}

// HeapSite is one allocation site in the live-object census: every live
// object in the normal allocator, attributed to its cleanup's registered
// name. (String-allocator data carries no headers and is not attributable;
// a metered runtime's site counters, regions_alloc_site_*_total, count it
// at allocation time.)
type HeapSite struct {
	Site    string `json:"site"`
	Objects uint64 `json:"objects"`
	Bytes   uint64 `json:"bytes"`
}

// HeapStrClass is one capacity class of the pooled string allocator's
// reuse accounting: lifetime New (bump) / Reuse (pool hit) / Freed counts
// and the blocks currently parked on live regions' free lists.
type HeapStrClass struct {
	Size       int    `json:"size"`
	New        uint64 `json:"new"`
	Reuse      uint64 `json:"reuse"`
	Freed      uint64 `json:"freed"`
	FreeBlocks int    `json:"freeBlocks"`
	FreeBytes  uint64 `json:"freeBytes"`
}

// HeapStrPool is the pooled string allocator's section of the report:
// the class ceiling, the New/Reuse/Big totals (ReuseRatio =
// Reuse / (New + Reuse)), and the per-class breakdown. Classes with no
// activity are omitted.
type HeapStrPool struct {
	Enabled    bool           `json:"enabled"`
	Ceiling    int            `json:"ceiling"`
	New        uint64         `json:"new"`
	Reuse      uint64         `json:"reuse"`
	Big        uint64         `json:"big"`
	Freed      uint64         `json:"freed"`
	ReuseRatio float64        `json:"reuseRatio"`
	Classes    []HeapStrClass `json:"classes,omitempty"`
}

// HeapReport is one full heap profile: the page census of every live
// region, runtime-level free-memory accounting, and the live allocation-site
// census. Produced by core.Runtime.HeapReport (System.HeapProfile).
type HeapReport struct {
	SchemaVersion int    `json:"schema_version"`
	Origin        string `json:"origin,omitempty"` // e.g. a shard name
	CapturedCycle uint64 `json:"capturedCycle"`    // simulated clock at capture

	MappedBytes   uint64 `json:"mappedBytes"` // total requested from the simulated OS
	FreePages     int    `json:"freePages"`   // single pages on the runtime free list
	FreeSpanPages int    `json:"freeSpanPages"`
	// DetachedPages counts free pages released by a deferred deletion and
	// not yet poisoned by the incremental sweeper (the runtime's sweep
	// debt at capture).
	DetachedPages int `json:"detachedPages,omitempty"`
	LiveRegions   int `json:"liveRegions"`

	Totals  RegionHeap   `json:"totals"` // summed over live regions (ID = -1)
	Regions []RegionHeap `json:"regions"`
	Sites   []HeapSite   `json:"sites,omitempty"`
	// StrPool is the pooled string allocator's reuse accounting (nil when
	// the producing runtime predates the pool).
	StrPool *HeapStrPool `json:"strPool,omitempty"`
}

// Top returns the n regions with the largest capacity (footprint), ties
// broken by id. The receiver is not modified.
func (r *HeapReport) Top(n int) []RegionHeap {
	out := append([]RegionHeap(nil), r.Regions...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].CapacityBytes != out[j].CapacityBytes {
			return out[i].CapacityBytes > out[j].CapacityBytes
		}
		return out[i].ID < out[j].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteJSON renders the report as indented JSON.
func (r *HeapReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders a human-readable heap profile: totals, the top-N
// regions by footprint, and the live allocation-site census.
func (r *HeapReport) WriteText(w io.Writer, topN int) {
	fmt.Fprintf(w, "heap profile at cycle %d", r.CapturedCycle)
	if r.Origin != "" {
		fmt.Fprintf(w, " (%s)", r.Origin)
	}
	fmt.Fprintln(w)
	t := r.Totals
	fmt.Fprintf(w, "  %d live regions on %d pages (%s capacity, %s mapped from OS)\n",
		r.LiveRegions, t.Pages, fmtBytes(t.CapacityBytes), fmtBytes(r.MappedBytes))
	fmt.Fprintf(w, "  live %s (%.1f%% occupancy): %s scanned + %s string; overhead %s bookkeeping, %s free, %s fragmentation\n",
		fmtBytes(t.LiveBytes), t.OccupancyPct, fmtBytes(t.NormalBytes), fmtBytes(t.StringBytes),
		fmtBytes(t.BookkeepingBytes), fmtBytes(t.FreeBytes), fmtBytes(t.FragBytes))
	if t.StrPoolBlocks > 0 {
		fmt.Fprintf(w, "  string pool: %s parked in %d blocks\n",
			fmtBytes(t.StrPoolBytes), t.StrPoolBlocks)
	}
	fmt.Fprintf(w, "  free pages: %d single + %d in spans", r.FreePages, r.FreeSpanPages)
	if r.DetachedPages > 0 {
		fmt.Fprintf(w, " (%d detached, sweep pending)", r.DetachedPages)
	}
	fmt.Fprintln(w)

	top := r.Top(topN)
	if len(top) > 0 {
		fmt.Fprintf(w, "\n  %-8s %6s %10s %10s %7s %10s %10s %8s\n",
			"region", "pages", "capacity", "live", "occ%", "string", "frag", "objects")
		for _, reg := range top {
			fmt.Fprintf(w, "  #%-7d %6d %10s %10s %6.1f%% %10s %10s %8d\n",
				reg.ID, reg.Pages, fmtBytes(reg.CapacityBytes), fmtBytes(reg.LiveBytes),
				reg.OccupancyPct, fmtBytes(reg.StringBytes), fmtBytes(reg.FragBytes), reg.Objects)
		}
		if len(r.Regions) > len(top) {
			fmt.Fprintf(w, "  (%d more regions)\n", len(r.Regions)-len(top))
		}
	}
	if p := r.StrPool; p != nil && (p.New+p.Reuse+p.Big+p.Freed > 0) {
		fmt.Fprintf(w, "\n  string allocator (pool ceiling %s", fmtBytes(uint64(p.Ceiling)))
		if !p.Enabled {
			fmt.Fprintf(w, ", pooling off")
		}
		fmt.Fprintf(w, "): %d new, %d reused (%.1f%% reuse), %d freed, %d big\n",
			p.New, p.Reuse, 100*p.ReuseRatio, p.Freed, p.Big)
		if len(p.Classes) > 0 {
			fmt.Fprintf(w, "    %-8s %10s %10s %10s %8s %10s\n",
				"class", "new", "reuse", "freed", "parked", "parkedB")
			for _, c := range p.Classes {
				fmt.Fprintf(w, "    %-8s %10d %10d %10d %8d %10s\n",
					fmtBytes(uint64(c.Size)), c.New, c.Reuse, c.Freed,
					c.FreeBlocks, fmtBytes(c.FreeBytes))
			}
		}
	}
	if len(r.Sites) > 0 {
		fmt.Fprintf(w, "\n  live objects by site:\n")
		n := len(r.Sites)
		if topN > 0 && n > topN {
			n = topN
		}
		for _, s := range r.Sites[:n] {
			fmt.Fprintf(w, "    %-24s %8d objects %10s\n", s.Site, s.Objects, fmtBytes(s.Bytes))
		}
		if len(r.Sites) > n {
			fmt.Fprintf(w, "    (%d more sites)\n", len(r.Sites)-n)
		}
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
