package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/workload"
)

// badSpec builds a workload whose Generate fails (an empty profile has
// no functions).
func badSpec(name string) workload.Spec {
	return workload.Spec{Name: name, Profile: workload.Profile{Name: name}, DefaultInstructions: 10_000}
}

// Regression: a non-nil empty policy slice used to panic with
// index-out-of-range at res.Results[0]; it must be a validation error.
func TestRunRejectsEmptyPolicies(t *testing.T) {
	opts := tinyOptions()
	opts.Policies = []frontend.PolicyKind{}
	m, err := Run(opts)
	if err == nil {
		t.Fatal("empty policy slice accepted")
	}
	if m != nil {
		t.Error("measurements returned alongside error")
	}
	if !strings.Contains(err.Error(), "Policies") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// Regression: Run used to keep only the first workload error; all
// failures must be aggregated so a big run reports every bad workload.
func TestRunAggregatesWorkloadErrors(t *testing.T) {
	good := workload.SuiteN(1)[0]
	opts := Options{
		Workloads: []workload.Spec{badSpec("bad-alpha"), good, badSpec("bad-beta")},
		Scale:     0.02,
	}
	_, err := Run(opts)
	if err == nil {
		t.Fatal("failing workloads reported no error")
	}
	for _, name := range []string{"bad-alpha", "bad-beta"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("aggregated error missing workload %s: %v", name, err)
		}
	}
}

// Regression: ExecSeed 0 was silently rewritten to 1; the coercion is
// now documented and seed 0 is reachable via the ExecSeedZero sentinel.
func TestExecSeedDefaulting(t *testing.T) {
	if got := (Options{}).withDefaults().ExecSeed; got != 1 {
		t.Errorf("unset ExecSeed -> %d, want 1", got)
	}
	if got := (Options{ExecSeed: ExecSeedZero}).withDefaults().ExecSeed; got != 0 {
		t.Errorf("ExecSeedZero -> %d, want 0", got)
	}
	if got := (Options{ExecSeed: 7}).withDefaults().ExecSeed; got != 7 {
		t.Errorf("ExecSeed 7 -> %d, want 7", got)
	}
}

// ExecSeedZero must replay exactly the seed-0 stream the buffered path
// produces.
func TestExecSeedZeroRuns(t *testing.T) {
	opts := Options{
		Workloads: workload.SuiteN(1),
		Scale:     0.02,
		Policies:  []frontend.PolicyKind{frontend.PolicyLRU},
		ExecSeed:  ExecSeedZero,
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := m.Specs[0]
	prog, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := frontend.GenerateRecords(prog, 0, targetFor(spec, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	ref := bufferedResult(t, frontend.DefaultConfig(), frontend.PolicyLRU, recs)
	if got := m.Raw[0].Results[0]; got != ref {
		t.Errorf("seed-0 run diverged from buffered seed-0 replay:\n got %+v\nwant %+v", got, ref)
	}
}

// The streaming runner must be bit-identical to the buffered
// GenerateRecords + bufferedResult path on the whole tiny suite.
func TestStreamingMatchesBuffered(t *testing.T) {
	opts := tinyOptions()
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := frontend.DefaultConfig()
	for wi, spec := range m.Specs {
		prog, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := frontend.GenerateRecords(prog, 1, targetFor(spec, opts.Scale))
		if err != nil {
			t.Fatal(err)
		}
		for pi, k := range m.Policies {
			ref := bufferedResult(t, cfg, k, recs)
			if got := m.Raw[wi].Results[pi]; got != ref {
				t.Errorf("%s/%v: streaming result diverged\n got %+v\nwant %+v", spec.Name, k, got, ref)
			}
			if m.ICacheMPKI[k][wi] != ref.ICacheMPKI() || m.BTBMPKI[k][wi] != ref.BTBMPKI() {
				t.Errorf("%s/%v: MPKI vectors diverged", spec.Name, k)
			}
		}
	}
}

func TestRunContextCancelImmediate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var (
		mu     sync.Mutex
		counts = map[obs.EventKind]int{}
	)
	opts := tinyOptions()
	opts.Observer = func(e obs.Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	}
	m, err := RunContext(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Error("measurements returned despite cancellation")
	}
	// Regression: a workload whose tasks were drained without simulating
	// used to finish silently; every workload must now account for itself
	// with exactly one WorkloadFailed event.
	if counts[obs.WorkloadFailed] != len(opts.Workloads) {
		t.Errorf("%d WorkloadFailed events, want %d", counts[obs.WorkloadFailed], len(opts.Workloads))
	}
	if counts[obs.WorkloadStart] != 0 || counts[obs.WorkloadDone] != 0 || counts[obs.PolicyDone] != 0 {
		t.Errorf("cancelled run still emitted start/done events: %v", counts)
	}
}

// Cancelling mid-run must abort in-flight replays promptly and report
// the cancellation once, not once per aborted workload.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := tinyOptions()
	opts.ProgressEvery = 512
	var once sync.Once
	opts.Observer = func(e obs.Event) {
		if e.Kind == obs.Tick {
			once.Do(cancel)
		}
	}
	_, err := RunContext(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if strings.Contains(err.Error(), "workload") {
		t.Errorf("cancellation reported per workload: %v", err)
	}
}

func TestRunStatsCollected(t *testing.T) {
	opts := tinyOptions()
	opts.ProgressEvery = 1024
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats == nil {
		t.Fatal("no run stats")
	}
	if len(m.Stats.Workloads) != 8 {
		t.Fatalf("%d workload stats", len(m.Stats.Workloads))
	}
	for i, w := range m.Stats.Workloads {
		if w.Index != i {
			t.Errorf("stats %d out of order (index %d)", i, w.Index)
		}
		if len(w.Policies) != 5 {
			t.Errorf("%s: %d policy stats", w.Name, len(w.Policies))
		}
		if w.Records == 0 || w.Err != nil {
			t.Errorf("%s: records %d err %v", w.Name, w.Records, w.Err)
		}
	}
	if m.Stats.TotalRecords() == 0 || m.Stats.Wall <= 0 {
		t.Errorf("total records %d, wall %v", m.Stats.TotalRecords(), m.Stats.Wall)
	}
	if pt := m.Stats.PolicyTotals(); len(pt) != 5 {
		t.Errorf("%d policy totals", len(pt))
	}
	if out := m.Stats.Render(); !strings.Contains(out, "rec/s") {
		t.Errorf("render:\n%s", out)
	}
}

// The runner must emit a coherent event stream: one run pair, one
// workload pair each, one PolicyDone per (workload, policy), and ticks
// at the configured cadence.
func TestRunEmitsEvents(t *testing.T) {
	var (
		mu     sync.Mutex
		counts = map[obs.EventKind]int{}
	)
	opts := tinyOptions()
	opts.ProgressEvery = 256
	opts.Observer = func(e obs.Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	if counts[obs.RunStart] != 1 || counts[obs.RunDone] != 1 {
		t.Errorf("run events %d/%d, want 1/1", counts[obs.RunStart], counts[obs.RunDone])
	}
	if counts[obs.WorkloadStart] != 8 || counts[obs.WorkloadDone] != 8 {
		t.Errorf("workload events %d/%d, want 8/8", counts[obs.WorkloadStart], counts[obs.WorkloadDone])
	}
	if counts[obs.PolicyDone] != 40 {
		t.Errorf("%d PolicyDone events, want 40", counts[obs.PolicyDone])
	}
	if counts[obs.Tick] == 0 {
		t.Error("no Tick events at ProgressEvery=256")
	}
	if counts[obs.WorkloadFailed] != 0 {
		t.Errorf("%d WorkloadFailed events", counts[obs.WorkloadFailed])
	}
}
