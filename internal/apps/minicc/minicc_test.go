package minicc

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"regions/internal/apps/appkit"
)

// TestHostAllocsTokenSize: a token is a kind byte and one int32, a number
// or an interned identifier's index, so the run's token array of about half
// a token per source byte costs 8 bytes a token.
func TestHostAllocsTokenSize(t *testing.T) {
	if got := unsafe.Sizeof(token{}); got > 8 {
		t.Errorf("a token is %d bytes, want at most 8", got)
	}
}

func TestSourceShape(t *testing.T) {
	src := string(Source())
	if n := strings.Count(src, "\n"); n < 800 {
		t.Fatalf("source has %d lines, want well over 800", n)
	}
	if !strings.Contains(src, "int main()") {
		t.Fatal("no main")
	}
	if src != string(Source()) {
		t.Fatal("source not deterministic")
	}
}

// compileOne compiles an arbitrary program and returns main's result.
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
		{"int main() { return 42; }", 42},
		{"int main() { return (2 + 3); }", 5},
		{"int main() { return (10 - 4); }", 6},
		{"int main() { return (6 * 7); }", 42},
		{"int main() { return (17 / 5); }", 3},
		{"int main() { return (17 % 5); }", 2},
		{"int main() { return (3 < 4); }", 1},
		{"int main() { return (4 <= 4); }", 1},
		{"int main() { return (4 == 5); }", 0},
		{"int main() { return (4 != 5); }", 1},
		{"int main() { return (-7); }", -7},
		{"int main() { int x = 5; x = (x + 1); return x; }", 6},
		{"int main() { if (1 < 2) { return 10; } else { return 20; } return 0; }", 10},
		{"int main() { if (2 < 1) { return 10; } else { return 20; } return 0; }", 20},
		{"int main() { if (2 < 1) { return 10; } return 30; }", 30},
		{"int main() { int i = 0; int s = 0; while (i < 5) { s = (s + i); i = (i + 1); } return s; }", 10},
		{"int f(int p0) { return (p0 * p0); } int main() { return f(9); }", 81},
		{"int f(int p0, int p1) { return (p0 - p1); } int main() { return f(10, 3); }", 7},
		{"int g; int main() { g = 17; return (g + 1); }", 18},
		{"int g; int set(int p0) { g = p0; return 0; } int main() { int x = set(9); return g; }", 9},
		{"int add(int p0) { return (p0 + 1); } int main() { return add(add(add(0))); }", 3},
		{"int main() { return (2 + 3 * 4); }", 14},
		{"int main() { return ((2 + 3) * 4); }", 20},
		{"int main() { return (1 < 2 + 3); }", 1},
	}
	for _, tc := range cases {
		if got := compileOne(t, tc.src); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestCompilerErrors(t *testing.T) {
	cases := []string{
		"int main() { return nope; }",
		"int main() { nope = 3; return 0; }",
		"int main() { return f(1); }",
		"int f(int p0) { return p0; } int main() { return f(1, 2); }",
		"int g; int g; int main() { return 0; }",
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

func TestLocalShadowsGlobal(t *testing.T) {
	src := "int g; int main() { g = 5; int g = 7; return g; }"
	if got := compileOne(t, src); got != 7 {
		t.Fatalf("shadowing: got %d, want 7", got)
	}
}

func TestAllRegionEnvsAgree(t *testing.T) {
	var want uint32
	first := true
	for _, kind := range appkit.RegionKinds {
		e := appkit.NewRegionEnv(kind, appkit.Config{})
		got := RunRegion(e, 1)
		if first {
			want, first = got, false
			continue
		}
		if got != want {
			t.Fatalf("%s checksum %#x, want %#x", kind, got, want)
		}
	}
}

func TestRegionRotationAndNoLeaks(t *testing.T) {
	e := appkit.NewRegionEnv("safe", appkit.Config{})
	RunRegion(e, 1)
	c := e.Counters()
	if c.LiveRegions != 0 || c.LiveBytes != 0 {
		t.Fatalf("live regions=%d bytes=%d", c.LiveRegions, c.LiveBytes)
	}
	// File region + working regions rotated every ~100 statements: the
	// paper's lcc shows very few live regions but multiple created.
	if c.RegionsCreated < 5 {
		t.Fatalf("only %d regions created; rotation not happening", c.RegionsCreated)
	}
	if c.MaxLiveRegions > 3 {
		t.Fatalf("max live regions %d, want <= 3 as in the paper", c.MaxLiveRegions)
	}
}

func TestLongFunctionSpansChunks(t *testing.T) {
	// A function with > quadsPerChunk quads exercises chunked emission and
	// jump patching across chunks.
	var sb strings.Builder
	sb.WriteString("int main() { int s = 0;\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("  if (s <= 1000) { s = (s + 3); } else { s = (s + 1); }\n")
	}
	sb.WriteString("  return s; }")
	if got := compileOne(t, sb.String()); got != 90 {
		t.Fatalf("got %d, want 90", got)
	}
}

func TestWhileLoopAggregation(t *testing.T) {
	src := `int sum(int p0) { int i = 0; int s = 0; while (i < p0) { s = (s + i); i = (i + 1); } return s; }
int main() { return (sum(10) + sum(4)); }`
	if got := compileOne(t, src); got != 45+6 {
		t.Fatalf("got %d, want 51", got)
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
