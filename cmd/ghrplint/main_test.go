package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

const (
	dirtyFixture = "../../internal/lint/testdata/src/wallclock"
	cleanFixture = "../../internal/lint/testdata/src/wallclock_ok"
)

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodeContract pins the 0/1/2 contract the Makefile's baseline
// gate depends on.
func TestExitCodeContract(t *testing.T) {
	if code, stdout, _ := runLint(t, cleanFixture); code != 0 || stdout != "" {
		t.Errorf("clean tree: got exit %d with output %q, want 0 and none", code, stdout)
	}
	if code, stdout, _ := runLint(t, dirtyFixture); code != 1 || !strings.Contains(stdout, "[detwallclock]") {
		t.Errorf("findings: got exit %d with output %q, want 1 and detwallclock diagnostics", code, stdout)
	}
	if code, _, stderr := runLint(t, "./no/such/pattern"); code != 2 || stderr == "" {
		t.Errorf("load failure: got exit %d (stderr %q), want 2 with an error", code, stderr)
	}
	for _, name := range []string{"nosuch", "goroleak"} {
		if code, _, stderr := runLint(t, "-analyzers", name, cleanFixture); code != 2 || !strings.Contains(stderr, "unknown analyzer") {
			t.Errorf("unknown analyzer %q: got exit %d (stderr %q), want 2", name, code, stderr)
		}
	}
}

// TestAnalyzerSelection asserts -analyzers restricts the run and -list
// names exactly the five analyzers.
func TestAnalyzerSelection(t *testing.T) {
	// The wallclock fixture is dirty under detwallclock but clean under
	// hotalloc, so selecting hotalloc alone must exit 0.
	if code, stdout, _ := runLint(t, "-analyzers", "hotalloc", dirtyFixture); code != 0 {
		t.Errorf("hotalloc-only run over the wallclock fixture: exit %d, output %q; want 0", code, stdout)
	}
	if code, stdout, _ := runLint(t, "-analyzers", "detwallclock", dirtyFixture); code != 1 || !strings.Contains(stdout, "[detwallclock]") {
		t.Errorf("detwallclock-only run: exit %d, output %q; want 1 with findings", code, stdout)
	}
	code, stdout, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	want := []string{"detwallclock", "detrand", "maprange", "hotalloc", "identtaint"}
	if strings.Join(listed, ",") != strings.Join(want, ",") {
		t.Errorf("-list names %v, want exactly %v:\n%s", listed, want, stdout)
	}
}

// TestJSONOutput asserts -json emits a parseable array with the agreed
// fields.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runLint(t, "-json", dirtyFixture)
	if code != 1 {
		t.Fatalf("-json over a dirty tree: exit %d, want 1", code)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(findings) == 0 {
		t.Fatal("-json output parsed but is empty")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with missing fields: %+v", f)
		}
	}
}

// TestBaselineGate asserts the write-then-gate flow: accepted findings
// pass, and a baseline entry nothing matches fails the gate as stale.
func TestBaselineGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.baseline")
	if code, _, stderr := runLint(t, "-write-baseline", path, dirtyFixture); code != 0 {
		t.Fatalf("-write-baseline: exit %d (stderr %q), want 0", code, stderr)
	}
	if code, stdout, _ := runLint(t, "-baseline", path, dirtyFixture); code != 0 {
		t.Errorf("gate against own baseline: exit %d, output %q; want 0", code, stdout)
	}
	// The same baseline against the clean fixture: every entry is stale.
	if code, _, stderr := runLint(t, "-baseline", path, cleanFixture); code != 1 || !strings.Contains(stderr, "stale baseline entry") {
		t.Errorf("stale baseline: exit %d (stderr %q), want 1 with a stale report", code, stderr)
	}
	// A missing baseline file is an empty baseline, not an error.
	if code, _, _ := runLint(t, "-baseline", filepath.Join(t.TempDir(), "absent"), cleanFixture); code != 0 {
		t.Errorf("missing baseline over a clean tree: exit %d, want 0", code)
	}
}
