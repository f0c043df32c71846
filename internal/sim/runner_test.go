package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ghrpsim/internal/faultinject"
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

// reuseOptions is a small generated grid run on one worker, ticking
// often enough that a run can be cancelled mid-replay.
func reuseOptions() Options {
	return Options{
		Source:        workload.SuiteGen{N: 6, FootprintMin: 0.2, FootprintMax: 1.0},
		Scale:         0.01,
		Parallelism:   1,
		ProgressEvery: 256,
	}
}

// requireSameRaw fails unless got and want hold the same specs, cells
// and completion flags, with failures at the same workloads. Errors are
// compared by presence only: a PanicError carries its goroutine stack.
func requireSameRaw(t *testing.T, step string, got, want *Measurements) {
	t.Helper()
	if len(got.Raw) != len(want.Raw) {
		t.Fatalf("%s: %d workloads, want %d", step, len(got.Raw), len(want.Raw))
	}
	for wi := range want.Raw {
		g, w := got.Raw[wi], want.Raw[wi]
		if (g.Err != nil) != (w.Err != nil) {
			t.Errorf("%s: workload %d: Err %v, want %v", step, wi, g.Err, w.Err)
		}
		g.Err, w.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: workload %d (%s) diverged from a fresh run\n got %+v\nwant %+v", step, wi, w.Spec.Name, g.Results, w.Results)
		}
	}
}

// requireIdle checks what one-worker runs leave in the Runner: exactly
// one idle worker, holding a fan-out unless the run's last attempt
// failed, which must drop it.
func requireIdle(t *testing.T, step string, rn *Runner, wantFanOut bool) {
	t.Helper()
	if len(rn.idle) != 1 {
		t.Fatalf("%s: Runner holds %d idle workers, want 1", step, len(rn.idle))
	}
	if has := rn.idle[0].fan.fo != nil; has != wantFanOut {
		t.Errorf("%s: idle worker holds a fan-out: %v, want %v", step, has, wantFanOut)
	}
}

// One Runner's workers outlive each run: a new configuration with the
// same roster, a roster subset, a cancelled run and a panicking task
// must leave every later completed run bit-identical to a fresh
// RunContext on the same options.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	var rn Runner
	ctx := context.Background()
	check := func(step string, opts Options, fresh func() Options) {
		t.Helper()
		got, err := rn.RunContext(ctx, opts)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want, err := RunContext(ctx, fresh())
		if err != nil {
			t.Fatalf("%s fresh: %v", step, err)
		}
		requireSameRaw(t, step, got, want)
	}
	same := func(opts Options) func() Options { return func() Options { return opts } }

	paper := reuseOptions()
	check("paper config", paper, same(paper))
	requireIdle(t, "paper config", &rn, true)

	// Same roster, different configuration: every table the fan-out
	// sizes from Config changes, so a reused fan-out would replay under
	// the wrong geometry and predictors.
	other := reuseOptions()
	other.Config = frontend.DefaultConfig()
	other.Config.ICache = frontend.ICacheConfig{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 4}
	other.Config.GHRP.NumTables = 2
	other.Config.Branch.HistoryLengths = []int{0, 4, 9, 17, 33}
	check("other config", other, same(other))

	subset := reuseOptions()
	subset.Policies = []frontend.PolicyKind{frontend.PolicyGHRP, frontend.PolicyLRU}
	check("roster subset", subset, same(subset))

	// Cancel once the second workload is mid-replay: its aborted attempt
	// must drop the fan-out before the worker goes back.
	cancelled := reuseOptions()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cancelled.Observer = func(e obs.Event) {
		if e.Kind == obs.Tick && e.WorkloadIndex == 1 {
			cancel()
		}
	}
	if _, err := rn.RunContext(cctx, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	requireIdle(t, "cancelled run", &rn, false)

	// A panic in the last task (one worker, one OpTask per workload).
	// Faults count their calls, so each run gets its own injector.
	panicking := func() Options {
		opts := reuseOptions()
		opts.KeepGoing = true
		n := uint64(opts.Source.Len())
		opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: n, Action: faultinject.Panic})
		return opts
	}
	check("panicking task", panicking(), panicking)
	requireIdle(t, "panicking task", &rn, false)

	check("paper config again", paper, same(paper))
	requireIdle(t, "paper config again", &rn, true)
}

// A warm Runner's second identical run allocates a small fraction of
// the first's: the fan-out and generator arenas are built once. Runs
// sharing a Runner concurrently hold no more workers than they use at
// once.
func TestRunnerReusesWorkers(t *testing.T) {
	// One worker, so the warm run's tasks land on the worker that built
	// for them in the cold run; with two, either may pick up a task.
	opts := Options{
		Source:      workload.SuiteGen{N: 8, FootprintMin: 0.2, FootprintMax: 1.0},
		Scale:       0.002,
		Parallelism: 1,
	}
	var rn Runner
	allocs := func() uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rn.RunContext(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold, warm := allocs(), allocs()
	if warm*4 >= cold {
		t.Errorf("warm run allocated %d bytes, cold %d: want under a quarter", warm, cold)
	}
	if len(rn.idle) != 1 {
		t.Errorf("Runner holds %d idle workers after two 1-worker runs, want 1", len(rn.idle))
	}

	opts.Parallelism = 2
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The run's two workers meet at their first workloads, so
			// each run holds two workers at once however short its
			// tasks are.
			var meet sync.WaitGroup
			meet.Add(2)
			var starts atomic.Int32
			ro := opts
			ro.Observer = func(e obs.Event) {
				if e.Kind == obs.WorkloadStart && starts.Add(1) <= 2 {
					meet.Done()
					meet.Wait()
				}
			}
			if _, err := rn.RunContext(context.Background(), ro); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := len(rn.idle); n < 2 || n > 6 {
		t.Errorf("Runner holds %d idle workers after three concurrent 2-worker runs, want 2..6", n)
	}
}

// A scale whose budgets a uint64 cannot hold fails validation instead
// of becoming a 2^63-instruction task; the largest scale that fits is
// accepted.
func TestOptionsRejectUncountableScale(t *testing.T) {
	for _, scale := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e308, 0x1p64 / workload.MaxDefaultInstructions} {
		if _, err := (Options{Workloads: workload.SuiteN(1), Scale: scale}).prepare(); err == nil {
			t.Errorf("scale %v accepted, want error", scale)
		}
	}
	if _, err := (Options{Workloads: workload.SuiteN(1), Scale: 0x1p63 / workload.MaxDefaultInstructions}).prepare(); err != nil {
		t.Errorf("scale 2^63/%d rejected: %v", workload.MaxDefaultInstructions, err)
	}
}
