package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"regions/internal/mem"
	"regions/internal/rng"
	"regions/internal/stats"
	"regions/internal/xmalloc"
)

// The related-work section's trace tables replay synthetic allocation
// traces against the malloc implementations, the trace-driven methodology
// of the allocation studies the paper's related work builds on (Detlefs,
// Dosser & Zorn's "Memory allocation costs in large C and C++ programs";
// Grunwald & Zorn's allocator comparisons): traces with controlled size and
// lifetime distributions, measured in cycles and OS memory on the same
// simulated machine as the paper's applications.

// traceOps and traceSeed size and seed every trace the tables replay.
const (
	traceOps  = 100000
	traceSeed = 1
)

// opKind distinguishes trace operations.
type opKind byte

// Trace operations.
const (
	opAlloc opKind = iota
	opFree
)

// traceOp is one trace event. Alloc ops carry the object id and size; free
// ops name the object id.
type traceOp struct {
	kind opKind
	id   int
	size int
}

// traceProfile names a synthetic workload shape.
type traceProfile string

// The three workload shapes the allocation-survey literature distinguishes
// most sharply.
const (
	// profileUniform: sizes spread uniformly, lifetimes exponential-ish —
	// the general-purpose allocator's home turf.
	profileUniform traceProfile = "uniform"
	// profileBimodal: the paper's moss pattern — alternating small hot and
	// large cold objects with very different lifetimes.
	profileBimodal traceProfile = "bimodal"
	// profilePhased: waves of objects born together and dying together —
	// the region pattern.
	profilePhased traceProfile = "phased"
)

// traceProfiles lists all workload shapes.
var traceProfiles = []traceProfile{profileUniform, profileBimodal, profilePhased}

// generateTrace builds a deterministic trace of roughly nOps operations
// (allocs plus the matching frees; every object is freed exactly once).
func generateTrace(profile traceProfile, nOps int, seed uint32) []traceOp {
	g := rng.LCG(seed ^ 0x7ace)
	var ops []traceOp
	nextID := 0
	type liveObj struct {
		id    int
		death int // index in ops after which it should die
	}
	var live []liveObj

	expire := func(now int) {
		kept := live[:0]
		for _, o := range live {
			if o.death <= now {
				ops = append(ops, traceOp{kind: opFree, id: o.id})
			} else {
				kept = append(kept, o)
			}
		}
		live = kept
	}

	switch profile {
	case profileUniform:
		for len(ops) < nOps {
			size := 8 + g.Pick(248)
			life := 1 + g.Pick(200)
			ops = append(ops, traceOp{kind: opAlloc, id: nextID, size: size})
			live = append(live, liveObj{id: nextID, death: len(ops) + life})
			nextID++
			expire(len(ops))
		}
	case profileBimodal:
		for len(ops) < nOps {
			var size, life int
			if nextID%2 == 0 {
				size, life = 16, 20+g.Pick(30) // small, hot, short
			} else {
				size, life = 256+g.Pick(256), 400+g.Pick(400) // large, cold, long
			}
			ops = append(ops, traceOp{kind: opAlloc, id: nextID, size: size})
			live = append(live, liveObj{id: nextID, death: len(ops) + life})
			nextID++
			expire(len(ops))
		}
	case profilePhased:
		for len(ops) < nOps {
			phase := 50 + g.Pick(150)
			born := make([]int, 0, phase)
			for i := 0; i < phase && len(ops) < nOps; i++ {
				size := 8 + g.Pick(56)
				ops = append(ops, traceOp{kind: opAlloc, id: nextID, size: size})
				born = append(born, nextID)
				nextID++
			}
			// The whole phase dies together (in birth order).
			for _, id := range born {
				ops = append(ops, traceOp{kind: opFree, id: id})
			}
		}
	default:
		panic(fmt.Sprintf("bench: unknown trace profile %q", profile))
	}
	// Free everything still alive, oldest first.
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, o := range live {
		ops = append(ops, traceOp{kind: opFree, id: o.id})
	}
	return ops
}

// replayResult is one (allocator, trace) measurement.
type replayResult struct {
	allocator   string
	allocCycles uint64
	freeCycles  uint64
	osBytes     uint64
}

// traceAllocators lists the replayable allocators by name.
var traceAllocators = []string{"Sun", "BSD", "Lea", "BZ"}

// newTraceAllocator builds a bare allocator on sp. A replay maps no global
// segment, unlike appkit's malloc environments, so the OS KB column counts
// the allocator's pages alone.
func newTraceAllocator(name string, sp *mem.Space) interface {
	Alloc(int) mem.Addr
	Free(mem.Addr)
} {
	switch name {
	case "Sun":
		return allocShim{xmalloc.NewSun(sp)}
	case "BSD":
		return allocShim{xmalloc.NewBSD(sp)}
	case "Lea":
		return allocShim{xmalloc.NewLea(sp)}
	case "BZ":
		return bzShim{xmalloc.NewBZ(sp)}
	}
	panic("bench: unknown trace allocator " + name)
}

type allocShim struct{ a xmalloc.Allocator }

func (s allocShim) Alloc(n int) mem.Addr { return s.a.Alloc(n) }
func (s allocShim) Free(p mem.Addr)      { s.a.Free(p) }

// bzShim derives BZ's allocation site from the request size, as the app
// harness does.
type bzShim struct{ z *xmalloc.BZ }

func (s bzShim) Alloc(n int) mem.Addr { return s.z.AllocAt(uint32(n), n) }
func (s bzShim) Free(p mem.Addr)      { s.z.Free(p) }

// replayTrace runs a trace against one allocator and reports its costs.
func replayTrace(name string, ops []traceOp) replayResult {
	c := &stats.Counters{}
	sp := mem.NewSpace(c)
	a := newTraceAllocator(name, sp)
	ptrs := map[int]mem.Addr{}
	for _, op := range ops {
		switch op.kind {
		case opAlloc:
			p := a.Alloc(op.size)
			sp.Store(p, uint32(op.id)) // touch the object
			ptrs[op.id] = p
		case opFree:
			p, ok := ptrs[op.id]
			if !ok {
				panic(fmt.Sprintf("bench: trace frees unknown id %d", op.id))
			}
			delete(ptrs, op.id)
			a.Free(p)
		}
	}
	if len(ptrs) != 0 {
		panic(fmt.Sprintf("bench: trace never frees %d objects", len(ptrs)))
	}
	return replayResult{
		allocator:   name,
		allocCycles: c.Cycles[stats.ModeAlloc],
		freeCycles:  c.Cycles[stats.ModeFree],
		osBytes:     sp.MappedBytes(),
	}
}

// traceTables replays a generated trace of nOps operations for every
// profile against every allocator and renders one table per profile, each
// followed by a blank line.
func traceTables(w io.Writer, nOps int, seed uint32) {
	for _, profile := range traceProfiles {
		ops := generateTrace(profile, nOps, seed)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "Trace %q: %d operations\n", profile, len(ops))
		fmt.Fprintln(tw, "Allocator\talloc cycles\tfree cycles\tOS KB")
		for _, name := range traceAllocators {
			r := replayTrace(name, ops)
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\n",
				r.allocator, r.allocCycles, r.freeCycles, kb(r.osBytes))
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
}
