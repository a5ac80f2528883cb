package bench

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateBalancedTraces(t *testing.T) {
	for _, profile := range traceProfiles {
		ops := generateTrace(profile, 5000, 1)
		allocs, frees := 0, 0
		live := map[int]bool{}
		for i, op := range ops {
			switch op.kind {
			case opAlloc:
				if live[op.id] {
					t.Fatalf("%s: duplicate alloc id %d at %d", profile, op.id, i)
				}
				if op.size <= 0 {
					t.Fatalf("%s: bad size %d", profile, op.size)
				}
				live[op.id] = true
				allocs++
			case opFree:
				if !live[op.id] {
					t.Fatalf("%s: free of dead id %d at %d", profile, op.id, i)
				}
				delete(live, op.id)
				frees++
			}
		}
		if allocs != frees {
			t.Fatalf("%s: %d allocs vs %d frees", profile, allocs, frees)
		}
		if len(live) != 0 {
			t.Fatalf("%s: %d leaked ids", profile, len(live))
		}
		if allocs < 1000 {
			t.Fatalf("%s: only %d allocs", profile, allocs)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generateTrace(profileUniform, 2000, 7)
	b := generateTrace(profileUniform, 2000, 7)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	c := generateTrace(profileUniform, 2000, 8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical traces")
	}
}

func TestReplayAllAllocators(t *testing.T) {
	ops := generateTrace(profileUniform, 3000, 3)
	for _, name := range traceAllocators {
		r := replayTrace(name, ops)
		if r.allocCycles == 0 || r.osBytes == 0 {
			t.Fatalf("%s: empty result %+v", name, r)
		}
	}
}

func TestPhasedTraceFavorsBZ(t *testing.T) {
	// On the region-shaped trace, BZ's whole-chunk reclamation should give
	// it a cheaper free path than the boundary-tag allocators.
	ops := generateTrace(profilePhased, 20000, 5)
	bz := replayTrace("BZ", ops)
	lea := replayTrace("Lea", ops)
	if bz.freeCycles >= lea.freeCycles {
		t.Fatalf("BZ free cycles %d should undercut Lea's %d on the phased trace",
			bz.freeCycles, lea.freeCycles)
	}
}

func TestReportRenders(t *testing.T) {
	var buf bytes.Buffer
	traceTables(&buf, 2000, 1)
	out := buf.String()
	for _, want := range []string{"uniform", "bimodal", "phased", "Sun", "BSD", "Lea", "BZ"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in report:\n%s", want, out)
		}
	}
}

func TestQuickTraceWellFormed(t *testing.T) {
	err := quick.Check(func(seed uint32, pick uint8) bool {
		profile := traceProfiles[int(pick)%len(traceProfiles)]
		ops := generateTrace(profile, 500+int(seed%2000), seed)
		live := map[int]bool{}
		for _, op := range ops {
			if op.kind == opAlloc {
				if live[op.id] {
					return false
				}
				live[op.id] = true
			} else {
				if !live[op.id] {
					return false
				}
				delete(live, op.id)
			}
		}
		return len(live) == 0
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
