package bench

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"regions/internal/apps/appkit"
	"regions/internal/core"
	"regions/internal/race"
)

// TestHostAllocsPaperApps gates the applications' own host memory. Each
// region variant runs in a safe environment at a sixteenth of its default
// scale and at twice that; one added unit of scale may allocate at most the
// bound, in Go bytes net of the page buffers the run's space allocates and
// of one Region handle per region it creates. Those two are the simulation.
// What is left is the application's host scratch, which lives per run, not
// per token, quotient, function or document. Mapped bytes would overstate
// the pages' cost: a page nobody writes shares mem's zero or poison page.
func TestHostAllocsPaperApps(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	// KB per added unit of scale, about 25% above what each application
	// measures. mudlle and lcc measure zero, so theirs is room for the Go
	// runtime's own allocations.
	bound := map[string]float64{
		"cfrac":   9.5,
		"grobner": 46,
		"mudlle":  2,
		"lcc":     4,
		"tile":    16.5,
		"moss":    23.5,
	}
	for _, app := range Apps() {
		s := max(1, app.DefaultScale/16)
		kb := (netHostBytes(app, 2*s) - netHostBytes(app, s)) / float64(s) / 1024
		t.Logf("%s: %.1f KB per unit of scale", app.Name, kb)
		if kb > bound[app.Name] {
			t.Errorf("%s allocates %.1f KB of host memory per unit of scale, want at most %g",
				app.Name, kb, bound[app.Name])
		}
	}
}

// netHostBytes runs app's region variant at scale in a fresh safe
// environment and returns the Go bytes the run allocated, less the page
// buffers its space allocated and its Region handles. It keeps the least of
// three runs: the Go runtime's own allocations only ever add.
func netHostBytes(app appkit.App, scale int) float64 {
	least := math.Inf(1)
	for range 3 {
		e := appkit.NewRegionEnv("safe", appkit.Config{})
		pages, regions := e.Space().ResidentBytes(), e.Counters().RegionsCreated
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		app.Region(e, scale)
		runtime.ReadMemStats(&after)
		pages = e.Space().ResidentBytes() - pages
		regions = e.Counters().RegionsCreated - regions
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)-float64(pages)-
			float64(regions)*float64(unsafe.Sizeof(core.Region{})))
	}
	return least
}
