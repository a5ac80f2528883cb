package mudlle

import (
	"fmt"
	"strings"
	"testing"

	"regions/internal/apps/appkit"
)

func TestSourceShape(t *testing.T) {
	src := string(Source())
	if n := strings.Count(src, "\n"); n < 200 {
		t.Fatalf("source has %d lines, want a few hundred", n)
	}
	if !strings.Contains(src, "(define (main)") {
		t.Fatal("no main")
	}
	if src != string(Source()) {
		t.Fatal("source not deterministic")
	}
	// Parens must balance.
	depth := 0
	for _, ch := range src {
		switch ch {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth < 0 {
			t.Fatal("unbalanced parens")
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced parens: %d", depth)
	}
}

func TestAllRegionEnvsAgree(t *testing.T) {
	var want uint32
	first := true
	for _, kind := range appkit.RegionKinds {
		e := appkit.NewRegionEnv(kind, appkit.Config{})
		got := RunRegion(e, 2)
		if first {
			want, first = got, false
			continue
		}
		if got != want {
			t.Fatalf("%s checksum %#x, want %#x", kind, got, want)
		}
	}
}

func TestNoLeaksAndRegionChurn(t *testing.T) {
	e := appkit.NewRegionEnv("safe", appkit.Config{})
	RunRegion(e, 3)
	c := e.Counters()
	if c.LiveRegions != 0 || c.LiveBytes != 0 {
		t.Fatalf("live regions=%d bytes=%d", c.LiveRegions, c.LiveBytes)
	}
	// One file region plus one region per function, per compile.
	if c.RegionsCreated < 3*100 {
		t.Fatalf("only %d regions created", c.RegionsCreated)
	}
}

// compileOne compiles an arbitrary source and returns main's VM result.
func compileOne(t *testing.T, src string) int32 {
	t.Helper()
	e := appkit.NewRegionEnv("unsafe", appkit.Config{})
	c := &compiler{e: e, sp: e.Space()}
	c.registerCleanups()
	c.f = e.PushFrame(numSlots)
	defer e.PopFrame()
	result, _ := c.compileFile([]byte(src))
	return result
}

func TestCompilerSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want int32
	}{
		{"(define (main) 42)", 42},
		{"(define (main) (+ 1 2))", 3},
		{"(define (main) (- 10 4))", 6},
		{"(define (main) (* 6 7))", 42},
		{"(define (main) (< 3 5))", 1},
		{"(define (main) (< 5 3))", 0},
		{"(define (main) (if (< 1 2) 10 20))", 10},
		{"(define (main) (if (< 2 1) 10 20))", 20},
		{"(define (main) (let ((x 5)) (+ x (* x x))))", 30},
		{"(define (f p0) (* p0 p0))\n(define (main) (f 9))", 81},
		{"(define (f p0 p1) (- p0 p1))\n(define (main) (f 10 3))", 7},
		{"(define (g p0) (+ p0 1))\n(define (f p0) (g (g p0)))\n(define (main) (f 5))", 7},
		{"(define (main) (if (< 1 2) (if (< 3 4) 99 1) 2))", 99},
		{"(define (main) (let ((a 2)) (let ((b 3)) (+ a b))))", 5},
	}
	for _, tc := range cases {
		if got := compileOne(t, tc.src); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestCompilerErrors(t *testing.T) {
	cases := []string{
		"(define (main) (undefinedfn 1))",
		"(define (main) unboundvar)",
		"(define (main) @)",
	}
	for _, src := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %q", src)
				}
			}()
			compileOne(t, src)
		}()
	}
}

func TestLongJumpPatch(t *testing.T) {
	// An if whose branches straddle a chunk boundary exercises patch16.
	var sb strings.Builder
	sb.WriteString("(define (main) (if (< 1 2) (+ 0 ")
	for i := 0; i < 60; i++ {
		sb.WriteString("(+ 1 ")
	}
	sb.WriteString("7")
	for i := 0; i < 60; i++ {
		sb.WriteString(")")
	}
	sb.WriteString(") 5))")
	if got := compileOne(t, sb.String()); got != 67 {
		t.Fatalf("got %d, want 67", got)
	}
}

func TestScaleChangesOnlyRepetition(t *testing.T) {
	a := RunRegion(appkit.NewRegionEnv("unsafe", appkit.Config{}), 1)
	b := RunRegion(appkit.NewRegionEnv("unsafe", appkit.Config{}), 2)
	if a == b {
		t.Fatal("checksums should differ across scales (folded per compile)")
	}
	c1 := appkit.NewRegionEnv("unsafe", appkit.Config{})
	RunRegion(c1, 1)
	c2 := appkit.NewRegionEnv("unsafe", appkit.Config{})
	RunRegion(c2, 2)
	if c2.Counters().Allocs != 2*c1.Counters().Allocs {
		t.Fatalf("allocs don't scale linearly: %d vs %d",
			c1.Counters().Allocs, c2.Counters().Allocs)
	}
}

// outcome is what one compile answers: main's result and the module hash,
// or the diagnostic that rejected the input.
type outcome struct {
	result int32
	hash   uint32
	diag   string
}

// compileOutcome runs one compile on c in a frame of its own, as RunRegion
// does, turning a rejection into its diagnostic.
func compileOutcome(c *compiler, src []byte) (o outcome) {
	c.f = c.e.PushFrame(numSlots)
	defer c.e.PopFrame()
	defer func() {
		if r := recover(); r != nil {
			o.diag = fmt.Sprint(r)
		}
	}()
	o.result, o.hash = c.compileFile(src)
	return o
}

// TestReusedCompilerMatchesFresh: a compiler keeps its host scratch from
// one compile to the next, rejected inputs included, and every compile
// still answers what a fresh compiler answers on the same input.
func TestReusedCompilerMatchesFresh(t *testing.T) {
	inputs := [][]byte{
		SourceSeeded(1)[:500], // rejected
		SourceSeeded(2),
		append(SourceSeeded(3)[:200:200], '@'), // rejected
		SourceSeeded(1),
	}
	e := appkit.NewRegionEnv("safe", appkit.Config{})
	reused := &compiler{e: e, sp: e.Space()}
	reused.registerCleanups()
	for i, src := range inputs {
		fe := appkit.NewRegionEnv("safe", appkit.Config{})
		fresh := &compiler{e: fe, sp: fe.Space()}
		fresh.registerCleanups()
		want := compileOutcome(fresh, src)
		if got := compileOutcome(reused, src); got != want {
			t.Errorf("input %d: the reused compiler answers %+v, a fresh one %+v", i, got, want)
		}
		if rejected := want.diag != ""; rejected != (i%2 == 0) {
			t.Errorf("input %d: rejected = %v (%q)", i, rejected, want.diag)
		}
	}
}
