package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/workload"
)

// faultOptions is tinyOptions shrunk further and pinned to Parallelism
// 1 with fast retries, so injection rules address exact cells and the
// tests stay quick.
func faultOptions(n int) Options {
	return Options{
		Workloads:    workload.SuiteN(n),
		Policies:     []frontend.PolicyKind{frontend.PolicyLRU},
		Scale:        0.02,
		Parallelism:  1,
		RetryBackoff: time.Millisecond,
	}
}

// countEvents returns a concurrency-safe observer and a counter map
// keyed by event kind, plus a slice capturing WorkloadFailed errors.
func countEvents() (obs.Observer, func(obs.EventKind) int, func() []error) {
	var mu sync.Mutex
	counts := map[obs.EventKind]int{}
	var failErrs []error
	o := func(e obs.Event) {
		mu.Lock()
		defer mu.Unlock()
		counts[e.Kind]++
		if e.Kind == obs.WorkloadFailed {
			failErrs = append(failErrs, e.Err)
		}
	}
	count := func(k obs.EventKind) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[k]
	}
	fails := func() []error {
		mu.Lock()
		defer mu.Unlock()
		return append([]error(nil), failErrs...)
	}
	return o, count, fails
}

// An injected panic in one cell of a keep-going suite must become
// exactly one WorkloadFailed event carrying the stack, while every
// other cell completes bit-identically to a clean run.
func TestFaultPanicIsolatedKeepGoing(t *testing.T) {
	clean, err := Run(faultOptions(5))
	if err != nil {
		t.Fatal(err)
	}

	opts := faultOptions(5)
	opts.KeepGoing = true
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: 3, Action: faultinject.Panic})
	observer, count, fails := countEvents()
	opts.Observer = observer
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("keep-going run aborted: %v", err)
	}
	if m == nil {
		t.Fatal("nil measurements")
	}
	if got := count(obs.WorkloadFailed); got != 1 {
		t.Fatalf("%d WorkloadFailed events, want exactly 1", got)
	}
	ferr := fails()[0]
	if !strings.Contains(ferr.Error(), "injected panic") {
		t.Errorf("failure does not carry the panic value: %v", ferr)
	}
	if !strings.Contains(ferr.Error(), "goroutine") {
		t.Errorf("failure does not carry the goroutine stack: %v", ferr)
	}
	var pe *PanicError
	if !errors.As(ferr, &pe) {
		t.Errorf("failure is not a PanicError: %T", ferr)
	}

	// Occurrence 3 of OpTask at Parallelism 1 is workload index 2.
	for wi, r := range m.Raw {
		wantErr := wi == 2
		if (r.Err != nil) != wantErr {
			t.Errorf("workload %d: Err = %v, want failed=%v", wi, r.Err, wantErr)
		}
		if !wantErr {
			if !r.Completed[0] {
				t.Errorf("workload %d: cell not marked completed", wi)
			}
			if r.Results[0] != clean.Raw[wi].Results[0] {
				t.Errorf("workload %d: surviving cell diverged from clean run", wi)
			}
		} else if r.Completed[0] {
			t.Errorf("workload %d: failed cell marked completed", wi)
		}
	}
	done := m.Completed()
	if len(done.Specs) != 4 || len(done.Raw) != 4 || len(done.BranchMPKI) != 4 {
		t.Fatalf("Completed kept %d/%d/%d entries, want 4", len(done.Specs), len(done.Raw), len(done.BranchMPKI))
	}
	for _, k := range done.Policies {
		if len(done.ICacheMPKI[k]) != 4 || len(done.BTBMPKI[k]) != 4 {
			t.Errorf("%v: Completed MPKI vectors not filtered", k)
		}
	}
	if len(m.Stats.Failed()) != 1 {
		t.Errorf("stats report %d failed workloads, want 1", len(m.Stats.Failed()))
	}
}

// An injected stall must trip the task deadline instead of hanging the
// run, and surface as ErrTaskTimeout rather than a bare context error.
func TestFaultStallTripsTaskDeadline(t *testing.T) {
	opts := faultOptions(1)
	opts.TaskTimeout = 100 * time.Millisecond
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Action: faultinject.Stall})
	start := time.Now()
	m, err := Run(opts)
	if err == nil {
		t.Fatal("stalled run reported no error")
	}
	if m != nil {
		t.Error("measurements returned alongside error without KeepGoing")
	}
	if !errors.Is(err, ErrTaskTimeout) {
		t.Errorf("error is not ErrTaskTimeout: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to trip", elapsed)
	}
}

// With only the stall watchdog armed, a replay that stops reporting
// progress must fail with ErrTaskStalled even though no absolute
// deadline exists.
func TestFaultStallTripsWatchdog(t *testing.T) {
	opts := faultOptions(1)
	opts.StallTimeout = 50 * time.Millisecond
	opts.ProgressEvery = 64 // tiny replays must still report progress
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpProgress, Action: faultinject.Stall})
	m, err := Run(opts)
	if err == nil {
		t.Fatal("stalled run reported no error")
	}
	if m != nil {
		t.Error("measurements returned alongside error without KeepGoing")
	}
	if !errors.Is(err, ErrTaskStalled) {
		t.Errorf("error is not ErrTaskStalled: %v", err)
	}
}

// A transient task failure must be retried and succeed, leaving results
// bit-identical to a clean run and one retry in the stats.
func TestFaultTransientRetries(t *testing.T) {
	ref := serialReference(t, faultOptions(3))
	opts := faultOptions(3)
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: 2, Action: faultinject.Transient})
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	requireMatchesReference(t, m, ref)
	if m.Stats.Retries != 1 {
		t.Errorf("stats retries %d, want 1", m.Stats.Retries)
	}
	if got := opts.Faults.Calls(faultinject.OpTask); got != 4 {
		t.Errorf("task attempts %d, want 4 (3 cells + 1 retry)", got)
	}
}

// A fault that stays transient past the retry budget must surface the
// transient error instead of retrying forever.
func TestFaultTransientExhaustsRetries(t *testing.T) {
	opts := faultOptions(1)
	opts.MaxRetries = 2
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: 1, Count: 100, Action: faultinject.Transient})
	observer, count, _ := countEvents()
	opts.Observer = observer
	_, err := Run(opts)
	if err == nil {
		t.Fatal("exhausted retries reported no error")
	}
	if !strings.Contains(err.Error(), "injected transient") {
		t.Errorf("error lost the transient cause: %v", err)
	}
	if got := opts.Faults.Calls(faultinject.OpTask); got != 3 {
		t.Errorf("task attempts %d, want 3 (initial + 2 retries)", got)
	}
	if got := count(obs.TaskRetry); got != 2 {
		t.Errorf("%d TaskRetry events, want 2", got)
	}
}

// MaxRetries < 0 disables retries entirely: the first transient failure
// surfaces immediately.
func TestFaultNegativeMaxRetriesDisables(t *testing.T) {
	opts := faultOptions(1)
	opts.MaxRetries = -1
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Action: faultinject.Transient})
	if _, err := Run(opts); err == nil {
		t.Fatal("disabled retries still retried a transient failure")
	}
	if got := opts.Faults.Calls(faultinject.OpTask); got != 1 {
		t.Errorf("task attempts %d, want 1", got)
	}
}

// A transient cache write failure (here the first write of the run:
// workload 0's result entry) must retry the task and succeed on the
// second attempt, filling the cache completely.
func TestFaultCachePutTransientRetries(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(faultinject.Rule{Op: faultinject.OpCachePut, Nth: 1, Action: faultinject.Transient})
	cache.SetTestHooks(resultcache.TestHooks{
		BeforePut: func(path string) error { return in.Fire(context.Background(), faultinject.OpCachePut) },
	})
	ref := serialReference(t, faultOptions(2))
	opts := faultOptions(2)
	opts.Cache = cache
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("transient cache write not retried: %v", err)
	}
	requireMatchesReference(t, m, ref)
	if m.Stats.Retries != 1 {
		t.Errorf("stats retries %d, want 1", m.Stats.Retries)
	}
	// One result entry per workload; the faulted write was re-attempted
	// and stored.
	if n, err := cache.Len(); err != nil || n != 2 {
		t.Errorf("cache holds %d entries (err %v), want 2", n, err)
	}
}

// An entry corrupted on disk between runs must be quarantined on the
// warm rerun, re-simulated, and counted — with every healthy cell still
// served from the cache and results identical to the cold run.
func TestFaultCacheCorruptQuarantinedOnRerun(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Every write is a result entry, one per workload at Parallelism 1,
	// so occurrence 2 is workload 1's.
	in := faultinject.New(faultinject.Rule{Op: faultinject.OpCacheCorrupt, Nth: 2, Action: faultinject.Corrupt})
	cache.SetTestHooks(resultcache.TestHooks{
		AfterPut: func(path string) {
			if in.Hit(faultinject.OpCacheCorrupt) {
				if err := faultinject.CorruptFile(path); err != nil {
					t.Errorf("corrupting %s: %v", path, err)
				}
			}
		},
	})
	opts := faultOptions(3)
	opts.Cache = cache
	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheQuarantines != 1 {
		t.Errorf("quarantines %d, want 1", warm.Stats.CacheQuarantines)
	}
	if warm.Stats.CacheHits != 2 || warm.Stats.CacheMisses != 1 {
		t.Errorf("cache counters %d/%d, want 2 hits, 1 miss", warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	for wi := range cold.Raw {
		if warm.Raw[wi].Results[0] != cold.Raw[wi].Results[0] {
			t.Errorf("workload %d: warm rerun diverged after quarantine", wi)
		}
	}
	// 3 result entries; the quarantined one was repaired.
	if n, err := cache.Len(); err != nil || n != 3 {
		t.Errorf("cache holds %d entries (err %v), want 3 (quarantined cell repaired)", n, err)
	}
}

// Keep-going cannot outlast the caller's context: a cancelled run still
// returns its partial measurements, alongside the cancellation error.
func TestFaultKeepGoingCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := faultOptions(2)
	opts.KeepGoing = true
	m, err := RunContext(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled keep-going run returned %v", err)
	}
	if m == nil {
		t.Fatal("cancelled keep-going run dropped its partial measurements")
	}
}

// Keep-going with an un-runnable workload completes the suite, annotates
// the failure, and the aggregate error stays nil.
func TestFaultKeepGoingBadWorkload(t *testing.T) {
	good := workload.SuiteN(2)
	opts := faultOptions(2)
	opts.Workloads = []workload.Spec{good[0], badSpec("bad-gamma"), good[1]}
	opts.KeepGoing = true
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("keep-going run aborted: %v", err)
	}
	if m.Raw[1].Err == nil {
		t.Error("failed workload not annotated")
	}
	if m.Raw[0].Err != nil || m.Raw[2].Err != nil {
		t.Error("healthy workloads annotated with errors")
	}
	done := m.Completed()
	if len(done.Specs) != 2 || done.Specs[0].Name != good[0].Name || done.Specs[1].Name != good[1].Name {
		t.Errorf("Completed kept wrong workloads: %+v", done.Specs)
	}
	// Without KeepGoing the same suite must still abort.
	opts.KeepGoing = false
	if m, err := Run(opts); err == nil || m != nil {
		t.Errorf("fail-fast run returned (%v, %v), want (nil, error)", m, err)
	}
}

// The headroom computation honors keep-going: a bad workload is skipped
// and counted instead of sinking the whole bound computation.
func TestFaultKeepGoingHeadroom(t *testing.T) {
	good := workload.SuiteN(1)
	opts := faultOptions(1)
	opts.Workloads = []workload.Spec{badSpec("bad-delta"), good[0]}
	if _, err := computeHeadroom(context.Background(), opts); err == nil {
		t.Fatal("fail-fast headroom reported no error")
	}
	opts.KeepGoing = true
	rep, err := computeHeadroom(context.Background(), opts)
	if err != nil {
		t.Fatalf("keep-going headroom aborted: %v", err)
	}
	if rep.Failed != 1 {
		t.Errorf("failed count %d, want 1", rep.Failed)
	}
	if !strings.Contains(rep.Render(), "1 workloads failed") {
		t.Errorf("render missing skip note:\n%s", rep.Render())
	}
}

// Headroom's policy lanes and OPT passes run through the suite
// scheduler, so the scheduler's options reach them: a transient fault
// is retried, the Observer sees every workload, and the report matches
// a clean one. Against a cache Run already filled, every cell hits and
// each workload streams one LRU lane only to fill OPT's access log; a
// transient progress fault can fire only in that pass, and its retry
// must still add no cache entry.
func TestFaultHeadroomRetriesThroughScheduler(t *testing.T) {
	clean, err := computeHeadroom(context.Background(), faultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name  string
		setup func(t *testing.T, opts *Options)
	}{
		{"transient task fault", func(t *testing.T, opts *Options) {
			opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: 2, Action: faultinject.Transient})
		}},
		{"warm cache, transient fault in the OPT-only pass", func(t *testing.T, opts *Options) {
			cache, err := resultcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache = cache
			if _, err := Run(*opts); err != nil {
				t.Fatal(err)
			}
			opts.ProgressEvery = 64
			opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpProgress, Nth: 2, Action: faultinject.Transient})
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			opts := faultOptions(3)
			opts.Parallelism = 2
			in.setup(t, &opts)
			var n0 int
			if opts.Cache != nil {
				if n0, err = opts.Cache.Len(); err != nil {
					t.Fatal(err)
				}
			}
			observer, count, _ := countEvents()
			opts.Observer = observer
			rep, err := computeHeadroom(context.Background(), opts)
			if err != nil {
				t.Fatalf("transient fault not retried: %v", err)
			}
			if got := count(obs.TaskRetry); got != 1 {
				t.Errorf("%d TaskRetry events, want 1", got)
			}
			if got := count(obs.WorkloadDone); got != 3 {
				t.Errorf("%d WorkloadDone events, want 3", got)
			}
			if !reflect.DeepEqual(rep, clean) {
				t.Errorf("retried headroom diverged:\n%+v\n%+v", rep, clean)
			}
			if opts.Cache != nil {
				if n1, err := opts.Cache.Len(); err != nil || n1 != n0 {
					t.Errorf("headroom grew the cache from %d to %d entries (%v)", n0, n1, err)
				}
				if got := count(obs.PolicyDone); got != 0 {
					t.Errorf("%d PolicyDone events on a fully cached run, want 0", got)
				}
			}
		})
	}
}

// With every fault-tolerance option armed but no fault firing, results
// must stay bit-identical to the serial reference — robustness must be
// invisible on healthy runs.
func TestFaultZeroInjectionBitIdentical(t *testing.T) {
	ref := serialReference(t, faultOptions(4))
	opts := faultOptions(4)
	opts.TaskTimeout = time.Hour
	opts.StallTimeout = time.Hour
	opts.KeepGoing = true
	opts.MaxRetries = 3
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: 1 << 40, Action: faultinject.Panic})
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, m, ref)
	if m.Completed() != m {
		t.Error("Completed() copied a fully-successful run")
	}
	if m.Stats.Retries != 0 || len(m.Stats.Failed()) != 0 {
		t.Errorf("healthy run reported %d retries, %d failures", m.Stats.Retries, len(m.Stats.Failed()))
	}
}

// A deterministic seed-driven pick addresses one cell of a suite
// without hand-picking it; the same seed must fault the same cell.
func TestFaultSeedDrivenPlacement(t *testing.T) {
	cells := uint64(4)
	nth := faultinject.NthFromSeed(7, faultinject.OpTask, cells)
	run := func() int {
		opts := faultOptions(int(cells))
		opts.KeepGoing = true
		opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: nth, Action: faultinject.Panic})
		m, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for wi, r := range m.Raw {
			if r.Err != nil {
				return wi
			}
		}
		return -1
	}
	first := run()
	if first < 0 {
		t.Fatal("no cell faulted")
	}
	if again := run(); again != first {
		t.Errorf("same seed faulted cell %d then %d", first, again)
	}
}

// A transient cache write failing mid fan-out (after some of the
// workload's cells were already recorded) must retry only the
// unrecorded remainder and still end bit-identical to the serial
// reference: fan-out lanes are independent, so re-fusing a subset
// reproduces the same per-policy results.
func TestFaultCachePutMidFanOutRetries(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Write order at Parallelism 1: wl0 results x3, wl1 results x3.
	// Occurrence 3 is workload 0's third result entry, so two of its
	// cells are recorded before the attempt fails.
	in := faultinject.New(faultinject.Rule{Op: faultinject.OpCachePut, Nth: 3, Action: faultinject.Transient})
	cache.SetTestHooks(resultcache.TestHooks{
		BeforePut: func(path string) error { return in.Fire(context.Background(), faultinject.OpCachePut) },
	})
	base := faultOptions(2)
	base.Policies = []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicySRRIP, frontend.PolicyGHRP}
	ref := serialReference(t, base)

	opts := base
	opts.Cache = cache
	observer, count, _ := countEvents()
	opts.Observer = observer
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("mid-fan-out cache failure not retried: %v", err)
	}
	requireMatchesReference(t, m, ref)
	if m.Stats.Retries != 1 {
		t.Errorf("stats retries %d, want 1", m.Stats.Retries)
	}
	// Every cell completes exactly once across the two attempts.
	if got := count(obs.PolicyDone); got != 6 {
		t.Errorf("%d PolicyDone events, want 6", got)
	}
	if got := count(obs.WorkloadDone); got != 2 {
		t.Errorf("%d WorkloadDone events, want 2", got)
	}
	// 6 result entries, the faulted one re-written.
	if n, err := cache.Len(); err != nil || n != 6 {
		t.Errorf("cache holds %d entries (err %v), want 6", n, err)
	}
}

// A panic in a multi-policy fused task must fail only that workload —
// all of its cells — while other workloads' cells complete.
func TestFaultPanicMultiPolicyKeepGoing(t *testing.T) {
	opts := faultOptions(3)
	opts.Policies = []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP}
	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	opts = faultOptions(3)
	opts.Policies = []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP}
	opts.KeepGoing = true
	opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Nth: 2, Action: faultinject.Panic})
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("keep-going run aborted: %v", err)
	}
	for wi, r := range m.Raw {
		wantErr := wi == 1 // occurrence 2 of OpTask = second workload task
		if (r.Err != nil) != wantErr {
			t.Errorf("workload %d: Err = %v, want failed=%v", wi, r.Err, wantErr)
		}
		for pi := range m.Policies {
			if wantErr {
				if r.Completed[pi] {
					t.Errorf("workload %d cell %d: failed workload marked completed", wi, pi)
				}
			} else {
				if !r.Completed[pi] {
					t.Errorf("workload %d cell %d: not completed", wi, pi)
				}
				if r.Results[pi] != clean.Raw[wi].Results[pi] {
					t.Errorf("workload %d cell %d: diverged from clean run", wi, pi)
				}
			}
		}
	}
	if done := m.Completed(); len(done.Specs) != 2 {
		t.Errorf("Completed kept %d workloads, want 2", len(done.Specs))
	}
}

// midReplayFault arms rule op at a progress tick inside workload 1's
// fused replay (Parallelism 1, ProgressEvery 64), so the fault stops a
// worker's fan-out mid-stream after it has already served workload 0.
// ref is the run's serial reference.
func midReplayFault(ref [][]frontend.Result, opts Options, act faultinject.Action) *faultinject.Injector {
	return faultinject.New(faultinject.Rule{Op: faultinject.OpProgress,
		Nth: ref[0][0].Records/opts.ProgressEvery + 3, Action: act})
}

// mixedRosterOptions is faultOptions with a two-policy roster and
// frequent progress ticks.
func mixedRosterOptions(n int) Options {
	opts := faultOptions(n)
	opts.Policies = []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP}
	opts.ProgressEvery = 64
	return opts
}

// A panic in the middle of a replay fails only that workload; the
// worker drops its half-replayed fan-out, and every later workload it
// runs stays bit-identical to the serial reference.
func TestFaultMidReplayPanicKeepGoing(t *testing.T) {
	ref := serialReference(t, mixedRosterOptions(4))
	opts := mixedRosterOptions(4)
	opts.KeepGoing = true
	opts.Faults = midReplayFault(ref, opts, faultinject.Panic)
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("keep-going run aborted: %v", err)
	}
	for wi, r := range m.Raw {
		if wantErr := wi == 1; (r.Err != nil) != wantErr {
			t.Fatalf("workload %d: Err = %v, want failed=%v", wi, r.Err, wantErr)
		}
		if wi == 1 {
			continue
		}
		for pi := range m.Policies {
			if r.Results[pi] != ref[wi][pi] {
				t.Errorf("workload %d cell %d: diverged from serial reference after a mid-replay panic", wi, pi)
			}
		}
	}
}

// A transient fault in the middle of a replay is retried on a rebuilt
// fan-out and ends bit-identical to the serial reference.
func TestFaultMidReplayTransientRetries(t *testing.T) {
	ref := serialReference(t, mixedRosterOptions(3))
	opts := mixedRosterOptions(3)
	opts.Faults = midReplayFault(ref, opts, faultinject.Transient)
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("mid-replay transient fault not retried: %v", err)
	}
	if m.Stats.Retries != 1 {
		t.Errorf("stats retries %d, want 1", m.Stats.Retries)
	}
	requireMatchesReference(t, m, ref)
}

// A transient fault in a replay, after the program was generated into
// the worker's Generator, is retried on the kept program: the retry
// must not regenerate it, and the run stays bit-identical to the serial
// reference over a grid whose program sizes alternate small and large.
func TestFaultTransientAfterGenerationReusesProgram(t *testing.T) {
	opts := mixedRosterOptions(0)
	opts.Workloads, opts.Source = nil, mixedFootprintGrid(4)
	opts.Scale = 0.01
	ref := serialReference(t, opts)
	opts.Faults = midReplayFault(ref, opts, faultinject.Transient)
	m, err := Run(opts)
	if err != nil {
		t.Fatalf("transient fault after generation not retried: %v", err)
	}
	if m.Stats.Retries != 1 {
		t.Errorf("stats retries %d, want 1", m.Stats.Retries)
	}
	requireMatchesReference(t, m, ref)

	// The same failure one attempt at a time: workload 0 fills the
	// Generator, workload 1's first attempt fails mid-replay and keeps
	// its program, and the retry replays that program in place.
	prepared, err := opts.prepare()
	if err != nil {
		t.Fatal(err)
	}
	prepared.Faults = midReplayFault(ref, opts, faultinject.Transient)
	r, err := newRunState(prepared, []Variant{{}}, func(obs.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	var sw simWorker
	sw.useCells(r.grid.cells)
	ctx := context.Background()
	if err := r.runTaskSafe(ctx, task{0}, &sw); err != nil {
		t.Fatal(err)
	}
	r.finishTask(ctx, 0, nil)
	if err := r.runTaskSafe(ctx, task{1}, &sw); err == nil {
		t.Fatal("injected fault did not fail the attempt")
	}
	kept := r.states[1].prog
	if kept == nil {
		t.Fatal("failed attempt dropped its generated program")
	}
	// Replay ignores the name; regenerating would restore it.
	kept.Name = "kept"
	if err := r.runTaskSafe(ctx, task{1}, &sw); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if r.states[1].prog != kept || kept.Name != "kept" {
		t.Error("retry regenerated the program instead of replaying the kept one")
	}
	for pi := range prepared.Policies {
		if got := r.outs[0].Raw[1].Results[pi]; got != ref[1][pi] {
			t.Errorf("cell %d: retried replay diverged from serial reference", pi)
		}
	}
}

// A worker keeps its fan-out across successful tasks with the same
// roster of cells, rebuilds it for a different roster or different
// cells, and drops it after any failed attempt.
func TestSimWorkerFanOutLifecycle(t *testing.T) {
	opts, err := mixedRosterOptions(2).prepare()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r, err := newRunState(opts, []Variant{{}}, func(obs.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	var sw simWorker
	sw.useCells(r.grid.cells)
	if err := r.runTaskSafe(ctx, task{0}, &sw); err != nil {
		t.Fatal(err)
	}
	kept := sw.fanOut0()
	if kept == nil {
		t.Fatal("successful task left the worker without a fan-out")
	}
	if err := r.runTaskSafe(ctx, task{1}, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.fanOut0() != kept {
		t.Error("same roster rebuilt the fan-out instead of resetting it")
	}
	if fo, err := sw.fanOut(0, []int{0}); err != nil || fo == kept {
		t.Errorf("different roster reused the fan-out (err %v)", err)
	}
	all := make([]int, len(opts.Policies))
	for c := range all {
		all[c] = c
	}

	// A run over equal cells keeps the fan-out, even when the equal
	// perceptron history lengths live in another slice; an in-place edit
	// of the caller's slice afterwards must not make the kept copy match
	// it.
	lengths := []int{0, 4, 8, 16}
	cfg := opts.Config
	cfg.Branch.HistoryLengths = lengths
	if sw.useCells(cellsOf(cfg, opts.Policies)); sw.fanOut0() != nil {
		t.Error("new history lengths kept the fan-out")
	}
	if _, err := sw.fanOut(0, all); err != nil {
		t.Fatal(err)
	}
	kept = sw.fanOut0()
	cfg.Branch.HistoryLengths = []int{0, 4, 8, 16}
	if sw.useCells(cellsOf(cfg, opts.Policies)); sw.fanOut0() != kept {
		t.Error("equal cells rebuilt the fan-out")
	}
	lengths[1] = 5
	cfg.Branch.HistoryLengths = lengths
	if sw.useCells(cellsOf(cfg, opts.Policies)); sw.fanOut0() != nil {
		t.Error("history lengths edited in place kept the fan-out")
	}
	sw.useCells(r.grid.cells)

	for _, act := range []faultinject.Action{faultinject.Panic, faultinject.Transient} {
		opts.Faults = faultinject.New(faultinject.Rule{Op: faultinject.OpProgress, Nth: 3, Action: act})
		r, err := newRunState(opts, []Variant{{}}, func(obs.Event) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.fanOut(0, all); err != nil {
			t.Fatal(err)
		}
		if err := r.runTaskSafe(ctx, task{0}, &sw); err == nil {
			t.Fatalf("%v: injected fault did not fail the attempt", act)
		}
		if sw.fanOut0() != nil {
			t.Errorf("%v: failed attempt kept its fan-out", act)
		}
	}
}

// cellsOf lists one cell per kind, all under cfg.
func cellsOf(cfg frontend.Config, kinds []frontend.PolicyKind) []frontend.Cell {
	cells := make([]frontend.Cell, len(kinds))
	for i, k := range kinds {
		cells[i] = frontend.Cell{Kind: k, Config: cfg}
	}
	return cells
}

// fanOut0 returns the worker's fan-out for the first front group, or nil.
func (sw *simWorker) fanOut0() *frontend.FanOut {
	if len(sw.fans) == 0 {
		return nil
	}
	return sw.fans[0].fo
}
