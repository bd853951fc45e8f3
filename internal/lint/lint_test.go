package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sharedLoader caches one loader (and its source-importer cache) across
// fixture tests; importing pcu/mesh from source once is the dominant
// cost. fixtureCache additionally shares each compiled fixture package
// across tests, so a fixture dir is parsed and type-checked exactly
// once however many analyzers (or the golden test) visit it.
var (
	sharedLoader *Loader
	fixtureCache = map[string][]*Package{}
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatalf("loader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

func fixturePkgs(t *testing.T, name string) []*Package {
	t.Helper()
	if pkgs, ok := fixtureCache[name]; ok {
		return pkgs
	}
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := fixtureLoader(t).Load(".", dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), dir)
	}
	fixtureCache[name] = pkgs
	return pkgs
}

// testAnalyzer runs one analyzer over its fixture package and matches
// diagnostics against the `// want "..."` comments. Each fixture holds
// a positive file (bad.go, with expectations) and a negative file
// (ok.go, with none); unexpected diagnostics fail the test.
func testAnalyzer(t *testing.T, a *Analyzer) {
	pkgs := fixturePkgs(t, a.Name)
	diags := Run(pkgs, []*Analyzer{a})
	expects, err := ParseExpectations(pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(expects) == 0 {
		t.Fatalf("fixture %s has no want-comments", a.Name)
	}
	for _, fail := range CheckExpectations(expects, diags) {
		t.Error(fail)
	}
}

func TestCtxEscape(t *testing.T)     { testAnalyzer(t, CtxEscape) }
func TestBufDiscipline(t *testing.T) { testAnalyzer(t, BufDiscipline) }
func TestEntHandle(t *testing.T)     { testAnalyzer(t, EntHandle) }
func TestMapOrder(t *testing.T)      { testAnalyzer(t, MapOrder) }
func TestPhaseOrder(t *testing.T)    { testAnalyzer(t, PhaseOrder) }
func TestCollSeq(t *testing.T)       { testAnalyzer(t, CollSeq) }

// TestRankDiv pins rank-divergence detection through dataflow: guards
// and loop bounds that derive from Rank() via arithmetic, rank-returning
// helpers, rank-indexed data and assignment chains. CollSeq owns these
// cases (collseq/taint.go); every bad function there must be reported at
// its want-line and none of the ok functions may be reported.
func TestRankDiv(t *testing.T) {
	pkgs := fixturePkgs(t, CollSeq.Name)
	inTaint := func(file string) bool { return filepath.Base(file) == "taint.go" }
	var diags []Diagnostic
	for _, d := range Run(pkgs, []*Analyzer{CollSeq}) {
		if inTaint(d.Pos.Filename) {
			diags = append(diags, d)
		}
	}
	all, err := ParseExpectations(pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	var expects []Expectation
	for _, e := range all {
		if inTaint(e.File) {
			expects = append(expects, e)
		}
	}
	// One expectation per bad function: offset guard, helper under
	// taint, tainted loop, tainted range, chained taint, rank assigned
	// inside a literal.
	if len(expects) != 6 {
		t.Fatalf("taint.go has %d want-comments, want 6", len(expects))
	}
	for _, fail := range CheckExpectations(expects, diags) {
		t.Error(fail)
	}
}

// TestLoadRelativeDir checks that a "./..." pattern resolves against a
// relative dir once: it loads the same packages as the absolute dir.
func TestLoadRelativeDir(t *testing.T) {
	rel := filepath.Join("testdata", "src")
	abs, err := filepath.Abs(rel)
	if err != nil {
		t.Fatal(err)
	}
	var paths [2][]string
	for i, dir := range []string{rel, abs} {
		pkgs, err := fixtureLoader(t).Load(dir, "./...")
		if err != nil {
			t.Fatalf("Load(%q, \"./...\"): %v", dir, err)
		}
		for _, p := range pkgs {
			paths[i] = append(paths[i], p.Path)
		}
	}
	if len(paths[0]) == 0 || !slices.Equal(paths[0], paths[1]) {
		t.Errorf("relative dir loaded %v, absolute dir %v", paths[0], paths[1])
	}
}

// TestAnalyzerListStable pins the analyzer set wired into pumi-vet.
func TestAnalyzerListStable(t *testing.T) {
	want := []string{"ctxescape", "bufdiscipline", "enthandle", "maporder", "phaseorder", "collseq"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s lacks a doc string", a.Name)
		}
	}
}

// TestDiagnosticDedup exercises the cross-analyzer position dedup: at
// one file:line:col only the diagnostics of the analyzer with the
// fullest witness survive, and the result is independent of input order.
func TestDiagnosticDedup(t *testing.T) {
	mk := func(line, col int, analyzer, msg string) Diagnostic {
		d := Diagnostic{Analyzer: analyzer, Message: msg}
		d.Pos.Filename = "x.go"
		d.Pos.Line = line
		d.Pos.Column = col
		return d
	}
	in := []Diagnostic{
		mk(10, 2, "maporder", "a terser finding at the same spot"),
		mk(10, 2, "collseq", "divergent schedules with a long witness"),
		mk(10, 2, "collseq", "second collseq finding at the same position"),
		mk(12, 4, "maporder", "map order reaches communication"),
		mk(12, 4, "maporder", "map order reaches communication"), // exact dup
		mk(5, 1, "ctxescape", "ctx escapes"),
	}
	want := []string{
		"x.go:5:1: ctxescape: ctx escapes",
		"x.go:10:2: collseq: divergent schedules with a long witness",
		"x.go:10:2: collseq: second collseq finding at the same position",
		"x.go:12:4: maporder: map order reaches communication",
	}
	for trial := 0; trial < 2; trial++ {
		input := make([]Diagnostic, len(in))
		copy(input, in)
		if trial == 1 { // reversed input must not change the outcome
			for i, j := 0, len(input)-1; i < j; i, j = i+1, j-1 {
				input[i], input[j] = input[j], input[i]
			}
		}
		got := dedupeDiags(input)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d diagnostics, want %d: %v", trial, len(got), len(want), got)
		}
		for i, d := range got {
			if d.String() != want[i] {
				t.Errorf("trial %d: diag[%d] = %s, want %s", trial, i, d.String(), want[i])
			}
		}
	}
}

// TestRunOrderIndependent runs the full analyzer set forwards and
// reversed over every fixture: registration order must not leak into
// the output.
func TestRunOrderIndependent(t *testing.T) {
	fwd := Analyzers()
	rev := make([]*Analyzer, len(fwd))
	for i, a := range fwd {
		rev[len(fwd)-1-i] = a
	}
	for _, name := range []string{"collseq", "maporder"} {
		pkgs := fixturePkgs(t, name)
		a := Run(pkgs, fwd)
		b := Run(pkgs, rev)
		if len(a) != len(b) {
			t.Fatalf("%s: %d diagnostics forward, %d reversed", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: diag[%d] differs by registration order:\n fwd %v\n rev %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestGoldenOutput pins the complete pumi-vet output — every analyzer
// over every fixture package — against a checked-in golden file. The
// per-analyzer tests check each analyzer against its own fixtures; this
// one locks cross-analyzer behavior (what the full set reports on each
// fixture, ignore directives included) and the exact rendering. Rerun
// with UPDATE_GOLDEN=1 to regenerate after intentional changes.
func TestGoldenOutput(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		for _, d := range Run(fixturePkgs(t, e.Name()), Analyzers()) {
			got.WriteString(d.String() + "\n")
		}
	}
	golden := filepath.Join("testdata", "golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("%s out of date (UPDATE_GOLDEN=1 regenerates):\n--- want ---\n%s--- got ---\n%s",
			golden, want, got.String())
	}
}

// TestExpectationEngine exercises the want-comment matcher itself.
func TestExpectationEngine(t *testing.T) {
	pats, err := splitQuoted("\"one\" `two.*`")
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 2 || pats[0] != "one" || pats[1] != "two.*" {
		t.Fatalf("splitQuoted = %q", pats)
	}
	if _, err := splitQuoted(`"unterminated`); err == nil {
		t.Fatal("unterminated pattern accepted")
	}
	if _, err := splitQuoted(`bare`); err == nil {
		t.Fatal("unquoted pattern accepted")
	}
}
