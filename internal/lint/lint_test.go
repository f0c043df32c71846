package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixtureDirs lists every fixture package; they are loaded once, in one
// go list invocation, so the standard-library dependency closure is
// type-checked a single time for the whole test file.
var fixtureDirs = []string{
	"./testdata/src/wallclock",
	"./testdata/src/wallclock_ok",
	"./testdata/src/randglobal",
	"./testdata/src/maprange_det",
	"./testdata/src/maprange_render",
	"./testdata/src/hotalloc",
	"./testdata/src/hotalloc_deep",
	"./testdata/src/hotalloc_generic",
	"./testdata/src/identtaint",
	"./testdata/src/suppress",
	"./testdata/src/stale",
}

var (
	fixturesOnce sync.Once
	fixturePkgs  []*Package
	fixturesErr  error
)

func fixturePackage(t *testing.T, name string) *Package {
	t.Helper()
	fixturesOnce.Do(func() {
		fixturePkgs, fixturesErr = Load(".", fixtureDirs...)
	})
	if fixturesErr != nil {
		t.Fatalf("loading fixtures: %v", fixturesErr)
	}
	for _, p := range fixturePkgs {
		if strings.HasSuffix(p.ImportPath, "/testdata/src/"+name) {
			return p
		}
	}
	t.Fatalf("fixture package %q not loaded", name)
	return nil
}

// want is one expectation parsed from a fixture's `// want` comment:
// backquoted regexps that must each match a diagnostic on that line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantChunk = regexp.MustCompile("`([^`]+)`")

// collectWants parses the `// want` comments of a fixture package.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				chunks := wantChunk.FindAllStringSubmatch(text, -1)
				if len(chunks) == 0 {
					t.Fatalf("%s:%d: want comment without backquoted regexps", pos.Filename, pos.Line)
				}
				for _, ch := range chunks {
					re, err := regexp.Compile(ch[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, ch[1], err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the full analyzer suite over one fixture package
// and matches the diagnostics against its want comments, both ways.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	pkg := fixturePackage(t, name)
	wants := collectWants(t, pkg)
	for _, d := range Run([]*Package{pkg}, All()) {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.String()) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDetWallClockFixture(t *testing.T)   { checkFixture(t, "wallclock") }
func TestDetWallClockAllowlist(t *testing.T) { checkFixture(t, "wallclock_ok") }
func TestDetRandFixture(t *testing.T)        { checkFixture(t, "randglobal") }
func TestMapRangeDeterministic(t *testing.T) { checkFixture(t, "maprange_det") }
func TestMapRangeRenderers(t *testing.T)     { checkFixture(t, "maprange_render") }
func TestHotAllocFixture(t *testing.T)       { checkFixture(t, "hotalloc") }
func TestHotAllocDeepChains(t *testing.T)    { checkFixture(t, "hotalloc_deep") }
func TestHotAllocGenerics(t *testing.T)      { checkFixture(t, "hotalloc_generic") }
func TestIdentTaintFixture(t *testing.T)     { checkFixture(t, "identtaint") }

// TestStaleDirective asserts suppression hygiene both ways: the
// directive that still suppresses a diagnostic stays silent, the one
// whose diagnostic was fixed out from under it is itself reported. (A
// want comment cannot share a line with the directive comment, so this
// fixture is checked directly rather than through checkFixture.)
func TestStaleDirective(t *testing.T) {
	pkg := fixturePackage(t, "stale")
	diags := Run([]*Package{pkg}, All())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale-directive report:\n%s",
			len(diags), renderDiags(diags))
	}
	d := diags[0]
	if d.Analyzer != "driver" {
		t.Errorf("stale report should come from the driver, got %s", d)
	}
	want := "stale //ghrplint:ignore directive: no detwallclock diagnostic fires here anymore; delete it"
	if d.Message != want {
		t.Errorf("stale report message:\n got %q\nwant %q", d.Message, want)
	}
	goneLine := fixtureLine(t, pkg, "func Gone")
	if d.Pos.Line <= goneLine {
		t.Errorf("stale report should point at the directive inside Gone (after line %d): %s", goneLine, d)
	}
}

// TestStaleDirectiveScoping asserts a directive is only judged stale
// when its analyzer actually ran: a detwallclock-only ignore must not
// be reported by a hotalloc-only run.
func TestStaleDirectiveScoping(t *testing.T) {
	pkg := fixturePackage(t, "stale")
	if diags := Run([]*Package{pkg}, []*Analyzer{HotAlloc}); len(diags) != 0 {
		t.Errorf("hotalloc-only run should not judge detwallclock directives:\n%s", renderDiags(diags))
	}
}

// TestSelect pins the -analyzers selection semantics.
func TestSelect(t *testing.T) {
	got, err := Select("detwallclock, hotalloc")
	if err != nil || len(got) != 2 || got[0] != DetWallClock || got[1] != HotAlloc {
		t.Errorf("Select(detwallclock, hotalloc) = %v, %v", got, err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Error("Select(nosuch) should fail")
	}
	if _, err := Select("lockblock"); err == nil {
		t.Error("Select(lockblock) should fail: the analyzer was removed")
	}
	if _, err := Select(" , "); err == nil {
		t.Error("Select of an empty list should fail")
	}
}

// TestSuppressionDirectives asserts the three directive outcomes: a
// reasoned suppression silences its diagnostic, a reasonless directive
// is itself a build-failing driver diagnostic (and suppresses nothing),
// and an unknown analyzer name is reported rather than ignored.
func TestSuppressionDirectives(t *testing.T) {
	pkg := fixturePackage(t, "suppress")
	diags := Run([]*Package{pkg}, All())

	var drivers, wallclocks []Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "driver":
			drivers = append(drivers, d)
		case DetWallClock.Name:
			wallclocks = append(wallclocks, d)
		default:
			t.Errorf("unexpected analyzer in %s", d)
		}
	}
	if len(drivers) != 2 || len(wallclocks) != 2 {
		t.Fatalf("got %d driver + %d detwallclock diagnostics, want 2 + 2:\n%s",
			len(drivers), len(wallclocks), renderDiags(diags))
	}
	if !strings.Contains(drivers[0].Message, "without a reason") {
		t.Errorf("first driver diagnostic should flag the missing reason: %s", drivers[0])
	}
	if !strings.Contains(drivers[1].Message, `unknown analyzer "detwalllclock"`) {
		t.Errorf("second driver diagnostic should flag the unknown analyzer: %s", drivers[1])
	}
	// The justified suppression is the first time.Now in the file; both
	// surviving wall-clock diagnostics must come after it.
	justifiedLine := fixtureLine(t, pkg, "func Justified")
	for _, d := range wallclocks {
		if d.Pos.Line <= justifiedLine+1 {
			t.Errorf("diagnostic survived inside the justified suppression: %s", d)
		}
	}
}

// fixtureLine locates the first line containing substr in the (single)
// fixture file, so assertions don't hardcode line numbers.
func fixtureLine(t *testing.T, pkg *Package, substr string) int {
	t.Helper()
	for _, f := range pkg.Files {
		var found int
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if ok && found == 0 && strings.Contains("func "+fd.Name.Name, substr) {
				found = pkg.Fset.Position(fd.Pos()).Line
			}
			return found == 0
		})
		if found != 0 {
			return found
		}
	}
	t.Fatalf("fixture line %q not found", substr)
	return 0
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// TestDiagnosticFormat pins the shared file:line:col: [analyzer] format
// the Makefile and editors rely on.
func TestDiagnosticFormat(t *testing.T) {
	pkg := fixturePackage(t, "wallclock")
	diags := Run([]*Package{pkg}, []*Analyzer{DetWallClock})
	if len(diags) == 0 {
		t.Fatal("expected diagnostics from the wallclock fixture")
	}
	format := regexp.MustCompile(`^.+/wallclock\.go:\d+:\d+: \[detwallclock\] .+$`)
	for _, d := range diags {
		if !format.MatchString(d.String()) {
			t.Errorf("diagnostic %q does not match file:line:col: [analyzer] message", d.String())
		}
	}
}

// TestRepoClean is the driver test the CI gate rests on: the real
// module, loaded exactly as `make lint` loads it, must produce zero
// diagnostics. Running from the module root also proves Load handles
// the full package graph, annotations and in-tree suppressions.
func TestRepoClean(t *testing.T) {
	start := time.Now()
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		t.Errorf("repository is not lint-clean:\n%s", renderDiags(diags))
	}
	// The lint runtime budget: make ci runs the whole suite on every
	// change, so load + call graph + all analyzers must stay cheap.
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("lint suite took %v over the whole module; budget is 60s", elapsed)
	}
}

// TestBaselineRoundTrip pins the baseline file format and the
// new-vs-accepted split the CI gate performs.
func TestBaselineRoundTrip(t *testing.T) {
	pkg := fixturePackage(t, "wallclock")
	diags := Run([]*Package{pkg}, []*Analyzer{DetWallClock})
	if len(diags) == 0 {
		t.Fatal("expected diagnostics from the wallclock fixture")
	}
	root := ""
	var buf strings.Builder
	if err := WriteBaseline(&buf, root, diags); err != nil {
		t.Fatalf("writing baseline: %v", err)
	}
	path := filepath.Join(t.TempDir(), "lint.baseline")
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("reading baseline back: %v", err)
	}
	if len(baseline) == 0 {
		t.Fatal("round-tripped baseline is empty")
	}
	fresh, stale := ApplyBaseline(root, diags, baseline)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("diags against their own baseline: %d fresh, %d stale; want 0, 0", len(fresh), len(stale))
	}
	// A finding not in the baseline is fresh; a baseline entry nothing
	// matches is stale.
	extra := Diagnostic{Analyzer: "detwallclock", Message: "synthetic finding"}
	extra.Pos.Filename = "synthetic.go"
	fresh, stale = ApplyBaseline(root, append(append([]Diagnostic{}, diags...), extra), baseline)
	if len(fresh) != 1 || fresh[0].Message != "synthetic finding" {
		t.Errorf("fresh findings = %v, want just the synthetic one", fresh)
	}
	if len(stale) != 0 {
		t.Errorf("stale entries = %v, want none", stale)
	}
	fresh, stale = ApplyBaseline(root, nil, map[string]bool{"gone.go: [detrand] fixed long ago": true})
	if len(fresh) != 0 || len(stale) != 1 {
		t.Errorf("empty run against a stale baseline: %d fresh, %d stale; want 0, 1", len(fresh), len(stale))
	}
	// A missing baseline file reads as empty, not as an error.
	empty, err := ReadBaseline(filepath.Join(t.TempDir(), "absent"))
	if err != nil || len(empty) != 0 {
		t.Errorf("missing baseline: got %v, %v; want empty, nil", empty, err)
	}
}
