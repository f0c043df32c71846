package serve

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ghrpsim/internal/obs"
)

// update regenerates the golden files instead of comparing against
// them:
//
//	go test ./internal/serve/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current API output")

// TestSchemaRoundTrip checks the wire documents survive a JSON
// round-trip unchanged — the schema has no lossy corners.
func TestSchemaRoundTrip(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	later := now.Add(3 * time.Second)
	docs := []any{
		&RunRequest{Workloads: []string{"a", "b"}, Policies: []string{"LRU"}, Scale: 0.5,
			ExecSeed: 7, KeepGoing: true, Config: &ConfigDoc{ICacheKB: 16, Ways: 4},
			Parallelism: 3, ProgressEvery: 512},
		&StatusDoc{ID: "abc", State: "running", Request: RunRequest{Scale: 1},
			CreatedAt: now, StartedAt: &later, Submits: 2, Subscribers: 1, Events: 9,
			Progress: ProgressDoc{Workloads: 4, WorkloadsDone: 2, Records: 1000, CacheMisses: 3}},
		&ResultDoc{ID: "abc", Workloads: []string{"w"}, Policies: []string{"LRU"},
			ICacheMPKI: map[string][]float64{"LRU": {1.5}},
			BTBMPKI:    map[string][]float64{"LRU": {0.25}},
			BranchMPKI: []float64{12.5},
			Failed:     []RunErrorDoc{{Workload: "w", Error: "boom"}},
			Stats:      RunStatsDoc{WallMS: 12.5, Records: 1000, RecordsPerSec: 80000, CacheHits: 1, CacheMisses: 2, Retries: 3, CacheQuarantines: 4}},
		&EventDoc{Seq: 3, Kind: "policy-done", Workload: "w", WorkloadIndex: 1, Policy: "LRU",
			PolicyIndex: 2, Policies: 5, Records: 77, Instructions: 99, ElapsedMS: 1.25, CacheMiss: true},
		&ErrorDoc{Error: "nope", State: "failed"},
		&HealthDoc{Status: "ok", Runs: 3, Draining: true},
	}
	for _, doc := range docs {
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%T: %v", doc, err)
		}
		back := reflect.New(reflect.TypeOf(doc).Elem()).Interface()
		if err := json.Unmarshal(blob, back); err != nil {
			t.Fatalf("%T: %v", doc, err)
		}
		if !reflect.DeepEqual(doc, back) {
			t.Errorf("%T round-trip mismatch:\nbefore %+v\nafter  %+v", doc, doc, back)
		}
	}
}

// TestSubmitValidation drives the normalization errors through HTTP:
// each bad body is a 400 with a diagnostic, never a 500 or a crash.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Slots: 1, Defaults: Defaults{JobParallelism: 1, MaxCells: 4}})
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"suite_m": 3}`, "unknown field"},
		{"malformed JSON", `{"suite_n": `, "decoding request"},
		{"bad workload", `{"workloads": ["no-such-workload"]}`, "no-such-workload"},
		{"workloads and suite_n", `{"workloads": ["astar"], "suite_n": 2}`, "mutually exclusive"},
		{"negative suite_n", `{"suite_n": -1}`, "negative"},
		{"bad policy", `{"suite_n": 1, "policies": ["NOPE"]}`, "NOPE"},
		{"negative scale", `{"suite_n": 1, "scale": -0.5}`, "negative"},
		// Regression: the budget became +Inf, then a 2^63-instruction task.
		{"overflowing scale", `{"suite_n": 1, "scale": 1e308}`, "past 2^64"},
		{"long budget just past uint64", `{"workloads": ["LS-001"], "scale": 9.3e12}`, "past 2^64"},
		{"bad config", `{"suite_n": 1, "config": {"ways": 3}}`, "sets"},
		{"too many cells", `{"suite_n": 2, "policies": ["LRU", "GHRP", "SRRIP"]}`, "daemon limit"},
		// Regression: 2^62 workloads x 4 policies wrapped to 0 cells.
		{"cell count overflow", `{"suite": {"n": 4611686018427387904}, "policies": ["LRU", "LRU", "LRU", "LRU"]}`, "daemon limit"},
		// One cell, but its program would need ~10^15 functions.
		{"huge footprint", `{"suite": {"n": 1, "footprint_min": 1e12, "footprint_max": 1e12}, "policies": ["LRU"]}`, "footprint_max"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var ed ErrorDoc
			if err := json.NewDecoder(resp.Body).Decode(&ed); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("code %d (%s), want 400", resp.StatusCode, ed.Error)
			}
			if !strings.Contains(ed.Error, tc.wantErr) {
				t.Fatalf("error %q, want it to mention %q", ed.Error, tc.wantErr)
			}
		})
	}
}

// TestIdentityKnobs pins what is and is not part of the dedup identity:
// pacing knobs (parallelism, progress_every) are excluded; everything
// that can change simulation output is included.
func TestIdentityKnobs(t *testing.T) {
	d := Defaults{JobParallelism: 2}
	base := RunRequest{SuiteN: 2, Policies: []string{"LRU"}, Scale: 0.5}
	keyOf := func(req RunRequest) string {
		t.Helper()
		j, err := Normalize(req, d)
		if err != nil {
			t.Fatal(err)
		}
		return string(j.Key)
	}
	k0 := keyOf(base)

	same := base
	same.Parallelism, same.ProgressEvery = 7, 4096
	if keyOf(same) != k0 {
		t.Error("parallelism/progress_every changed the identity; they must not")
	}

	for name, mutate := range map[string]func(*RunRequest){
		"suite":    func(r *RunRequest) { r.SuiteN = 3 },
		"policies": func(r *RunRequest) { r.Policies = []string{"GHRP"} },
		"scale":    func(r *RunRequest) { r.Scale = 0.25 },
		"seed":     func(r *RunRequest) { r.ExecSeed = 9 },
		"keep":     func(r *RunRequest) { r.KeepGoing = true },
		"config":   func(r *RunRequest) { r.Config = &ConfigDoc{ICacheKB: 32} },
	} {
		req := base
		mutate(&req)
		if keyOf(req) == k0 {
			t.Errorf("%s change did not change the identity; it must", name)
		}
	}

	// Defaults normalize to the same identity as their explicit values.
	if keyOf(RunRequest{SuiteN: 2, Policies: []string{"LRU"}, Scale: 0.5, ExecSeed: 1}) != k0 {
		t.Error("explicit seed 1 and default seed differ in identity")
	}
}

// TestGoldenRunStatus pins the run-status document byte-for-byte: a run
// is assembled with a fixed clock and a replayed event log, and its
// StatusDoc JSON is compared against testdata/runstatus.golden
// (regenerate with -update via make golden-update).
func TestGoldenRunStatus(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	d := Defaults{JobParallelism: 2}
	j, err := Normalize(RunRequest{SuiteN: 2, Policies: []string{"LRU", "GHRP"}, Scale: 0.5}, d)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	run, created := store.GetOrCreate(context.Background(), j, now)
	if !created {
		t.Fatal("fresh store did not create the run")
	}
	run.mu.Lock()
	run.state = StateRunning
	run.started = now.Add(100 * time.Millisecond)
	run.submits = 3
	run.mu.Unlock()
	for _, e := range []obs.Event{
		{Kind: obs.RunStart, Workloads: 2, Policies: 2},
		{Kind: obs.WorkloadStart, Workload: "wl-a", WorkloadIndex: 0},
		{Kind: obs.PolicyDone, Workload: "wl-a", Policy: "LRU", Records: 1000, CacheMiss: true},
		{Kind: obs.PolicyDone, Workload: "wl-a", Policy: "GHRP", PolicyIndex: 1, Records: 1000, CacheMiss: true},
		{Kind: obs.WorkloadDone, Workload: "wl-a", Records: 2000},
	} {
		run.hub.Observe(e)
		run.observe(e)
	}

	blob, err := json.MarshalIndent(run.status(), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	got := string(blob) + "\n"

	path := filepath.Join("testdata", "runstatus.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve/ -run TestGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("run-status document changed; rerun with -update if intended.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
