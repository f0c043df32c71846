// Package sim is the experiment harness: it runs the workload suite
// across replacement policies and cache configurations in parallel, and
// defines one experiment per table and figure of the paper's evaluation
// section, each regenerating the corresponding rows or series.
package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/workload"
)

// ExecSeedZero requests literal execution seed 0. The zero value of
// Options.ExecSeed means "unset" and defaults to seed 1, so seed 0 needs
// this explicit sentinel.
const ExecSeedZero = ^uint64(0)

const (
	// DefaultMaxRetries is the retry budget for transient task failures.
	DefaultMaxRetries = 2
	// DefaultRetryBackoff is the base backoff before the first retry,
	// doubled per attempt with deterministic jitter.
	DefaultRetryBackoff = 50 * time.Millisecond
)

// Options configures a suite run.
type Options struct {
	// Workloads to simulate; defaults to the full 662-workload suite.
	Workloads []workload.Spec
	// Source yields workloads by index without materializing them up
	// front — the 100k-scale path (workload.SuiteGen, shard ranges).
	// Mutually exclusive with Workloads; nil falls back to Workloads or
	// the full suite. Only one Spec per workload is ever held in the
	// output; programs are synthesized per task and released after it.
	Source workload.Source
	// Config is the front-end configuration; defaults to the paper's.
	Config frontend.Config
	// Policies to evaluate; nil defaults to the paper's five. A non-nil
	// empty slice is rejected by Run.
	Policies []frontend.PolicyKind
	// Scale multiplies each workload's default instruction budget;
	// defaults to 1.0.
	Scale float64
	// Parallelism bounds concurrent simulation tasks. Each workload is
	// one task: its program is executed once and the record stream drives
	// every uncached policy lane in lockstep (frontend.FanOut), so adding
	// policies costs policy work, not extra executor passes. When the
	// suite has fewer workloads than Parallelism, the surplus is spent
	// inside each task: lane replay splits across Parallelism/tasks
	// goroutines (FanOut.StreamProgram's workers), so a few long
	// workloads still use the whole machine. Results are bit-identical
	// at any setting. Defaults to GOMAXPROCS.
	Parallelism int
	// ExecSeed seeds workload execution (fixed across policies so every
	// policy replays the identical trace). The zero value means "unset"
	// and is coerced to seed 1; pass ExecSeedZero to run with literal
	// seed 0.
	ExecSeed uint64
	// Observer receives live progress events (nil = none). It is
	// invoked concurrently from worker goroutines and must be safe for
	// concurrent use; see internal/obs.
	Observer obs.Observer
	// ProgressEvery is the record interval between obs.Tick events and
	// cancellation polls during one policy's replay; defaults to
	// frontend.DefaultProgressEvery.
	ProgressEvery uint64
	// Cache, when non-nil, is consulted before each (workload, policy)
	// cell and filled after it: cells already simulated under the
	// identical (profile, seed, budget, config, policy) key are loaded
	// from disk instead of replayed, which makes sweeps, ablations and
	// repeat runs skip their redundant baseline cells. Hits are
	// reported via obs.PolicyCached events and RunStats cache counters.
	// Only result cells are stored: the warm-up window comes from the
	// fused replay itself, so a workload writes one entry per policy.
	Cache *resultcache.Cache
	// TaskTimeout bounds one workload task's wall time — program
	// generation, the fused replay of all its uncached cells and, under
	// ComputeHeadroom, its OPT pass; 0 disables. A task over deadline
	// fails with ErrTaskTimeout.
	TaskTimeout time.Duration
	// StallTimeout bounds the time between a task's progress reports;
	// 0 disables. A task that stops advancing fails with ErrTaskStalled
	// even while TaskTimeout would still allow it.
	StallTimeout time.Duration
	// MaxRetries is how many times a task that failed with a transient
	// (retryable) error is re-attempted before the error surfaces; 0
	// defaults to DefaultMaxRetries, negative disables retries.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubled
	// per attempt with deterministic jitter; 0 defaults to
	// DefaultRetryBackoff, negative disables the delay.
	RetryBackoff time.Duration
	// KeepGoing completes the suite when cells fail: failed workloads
	// are annotated on the Measurements (WorkloadResult.Err,
	// Stats.Failed) and dropped by Completed(), instead of the run
	// returning nil Measurements with the joined error.
	KeepGoing bool
	// Faults, when non-nil, arms deterministic fault injection at the
	// scheduler's named sites. Test-only; see internal/faultinject.
	Faults *faultinject.Injector
}

func (o Options) withDefaults() Options {
	if o.Source == nil {
		if o.Workloads != nil {
			o.Source = workload.SliceSource(o.Workloads)
		} else {
			o.Source = workload.SliceSource(workload.Suite())
		}
	}
	if o.Config.ICache == (frontend.ICacheConfig{}) {
		o.Config = frontend.DefaultConfig()
	}
	if o.Policies == nil {
		o.Policies = frontend.PaperPolicies()
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	switch o.ExecSeed {
	case 0:
		o.ExecSeed = 1
	case ExecSeedZero:
		o.ExecSeed = 0
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = frontend.DefaultProgressEvery
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	return o
}

// validate rejects unusable option sets after defaulting.
func (o Options) validate() error {
	if len(o.Policies) == 0 {
		return errors.New("sim: Options.Policies is empty (nil selects the paper's five)")
	}
	return o.Config.Validate()
}

// prepare applies defaults and validates; every suite entry point goes
// through it.
func (o Options) prepare() (Options, error) {
	if o.Source != nil && o.Workloads != nil {
		return Options{}, errors.New("sim: Options.Source and Options.Workloads are mutually exclusive")
	}
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// targetFor scales one workload's instruction budget.
func targetFor(spec workload.Spec, scale float64) uint64 {
	target := uint64(float64(spec.DefaultInstructions) * scale)
	if target < 1000 {
		target = 1000
	}
	return target
}

// WorkloadResult holds one workload's results across policies, indexed
// like Options.Policies.
type WorkloadResult struct {
	Spec    workload.Spec
	Results []frontend.Result
	// Err is the workload's first task error (nil when every cell
	// completed); on keep-going runs it annotates the failed cell
	// instead of aborting the suite.
	Err error
	// Completed marks which policy cells hold a real result, indexed
	// like Results. On error-free runs every element is true.
	Completed []bool
}

// Measurements is a suite run's full outcome: per-policy MPKI vectors
// over the workloads, for both structures, plus branch predictor MPKI.
// Vectors are indexed by workload position.
type Measurements struct {
	Options    Options
	Specs      []workload.Spec
	Policies   []frontend.PolicyKind
	ICacheMPKI map[frontend.PolicyKind][]float64
	BTBMPKI    map[frontend.PolicyKind][]float64
	BranchMPKI []float64
	Raw        []WorkloadResult
	// Stats holds the run's observability data: wall time,
	// per-workload / per-policy throughput, and result-cache hit and
	// miss counts.
	Stats *obs.RunStats
}

// PolicyIndex returns the position of kind in the run's policy list.
func (m *Measurements) PolicyIndex(kind frontend.PolicyKind) (int, bool) {
	for i, k := range m.Policies {
		if k == kind {
			return i, true
		}
	}
	return 0, false
}

// Completed filters a keep-going run's measurements down to the
// workloads whose every cell completed, keeping the MPKI vectors
// aligned across policies. When nothing failed it returns the receiver
// unchanged, so error-free runs stay bit-identical through the filter.
func (m *Measurements) Completed() *Measurements {
	failed := false
	for _, r := range m.Raw {
		if r.Err != nil {
			failed = true
			break
		}
	}
	if !failed {
		return m
	}
	out := &Measurements{
		Options:    m.Options,
		Policies:   m.Policies,
		ICacheMPKI: map[frontend.PolicyKind][]float64{},
		BTBMPKI:    map[frontend.PolicyKind][]float64{},
		Stats:      m.Stats,
	}
	for wi, r := range m.Raw {
		if r.Err != nil {
			continue
		}
		out.Specs = append(out.Specs, m.Specs[wi])
		out.Raw = append(out.Raw, r)
		out.BranchMPKI = append(out.BranchMPKI, m.BranchMPKI[wi])
		for _, k := range m.Policies {
			out.ICacheMPKI[k] = append(out.ICacheMPKI[k], m.ICacheMPKI[k][wi])
			out.BTBMPKI[k] = append(out.BTBMPKI[k], m.BTBMPKI[k][wi])
		}
	}
	return out
}

// Run simulates every workload under every policy; see RunContext.
func Run(opts Options) (*Measurements, error) {
	return RunContext(context.Background(), opts)
}

// RunContext runs one suite on a one-shot Runner: the workers it builds
// live for this run only. See Runner.RunContext.
func RunContext(ctx context.Context, opts Options) (*Measurements, error) {
	var rn Runner
	return rn.RunContext(ctx, opts)
}

// Runner runs suites on simulation workers it keeps between runs. A
// worker is a fan-out plus a program generator (simWorker); building
// one costs a few megabytes of tables, chunks and arenas, so a caller
// that runs many small suites — a daemon running shard after shard —
// holds one Runner and pays that once per concurrent worker instead of
// once per run. The package-level RunContext is a one-shot Runner, so
// both go through the same code.
//
// A Runner is safe for concurrent use. It never holds more workers than
// the most its runs have used at once. Reuse does not change results: a
// worker rebuilds its fan-out when the run's frontend.Config or policy
// roster differs from the one it was built for, and a failed attempt
// discards it. The zero value is ready to use.
type Runner struct {
	mu   sync.Mutex
	idle []*simWorker
}

// take hands out an idle worker, or a new one, ready for a run under
// cfg.
func (rn *Runner) take(cfg frontend.Config) *simWorker {
	rn.mu.Lock()
	var sw *simWorker
	if n := len(rn.idle); n > 0 {
		sw, rn.idle = rn.idle[n-1], rn.idle[:n-1]
	}
	rn.mu.Unlock()
	if sw == nil {
		sw = &simWorker{}
	}
	sw.useConfig(cfg)
	return sw
}

// put returns a worker whose task loop has ended: every program it
// generated has been released by finishTask.
func (rn *Runner) put(sw *simWorker) {
	rn.mu.Lock()
	rn.idle = append(rn.idle, sw)
	rn.mu.Unlock()
}

// task is one unit of scheduler work: one workload, replayed under every
// policy that the result cache could not answer, in a single fused
// traversal.
type task struct{ wi int }

// wlState is one workload's scheduler state. A workload is a single
// task owned by one worker at a time, so the fields need no locking;
// they persist across that task's retry attempts (the program survives
// a transient replay failure, and started keeps WorkloadStart from
// re-firing).
type wlState struct {
	start   time.Time
	started bool
	prog    *workload.Program
}

// runState carries one RunContext invocation's shared pieces.
type runState struct {
	opts    Options
	out     *Measurements
	states  []wlState
	errs    []error // one slot per workload, joined after the wait
	observe obs.Observer
	// laneWorkers is the per-task lane-replay width: the parallelism
	// left over after one worker per workload has been provisioned.
	// Above one, fused replays of several lanes run on that many
	// goroutines.
	laneWorkers int
	// opt, set only by ComputeHeadroom, receives each workload's OPT
	// MPKI, computed from the access log of the task's fused pass.
	opt *optSink
}

// simWorker is one worker goroutine's reusable simulator: the fan-out it
// built for the configuration and roster of policies it last fused.
// Consecutive tasks with the same roster reset it in place instead of
// reallocating lanes, tables and decision chunks; a different roster (a
// partial result-cache hit) rebuilds it, and a failed attempt drops it,
// so no state from an aborted replay can reach the next task. A worker
// outlives its run when a Runner keeps it, so the next run may bring a
// different configuration: useConfig drops the fan-out then.
type simWorker struct {
	fo    *frontend.FanOut
	cfg   frontend.Config // what fo was built for; owns its slices
	kinds []frontend.PolicyKind
	// gen generates every program the worker runs into storage reused
	// across workloads. A workload's attempts all run on this worker and
	// finishTask releases its program before the next task starts, so a
	// program is never overwritten while it is in use.
	gen workload.Generator
	// log receives a fused pass's demand accesses when the run owes the
	// workload an OPT pass; it keeps its storage across workloads.
	log frontend.AccessLog
}

// useConfig readies the worker for a run under cfg, dropping a fan-out
// built for any other configuration. The comparison is deep because
// Config holds slices (the perceptron's HistoryLengths): a false
// mismatch only costs a rebuild, a false match would replay under the
// wrong tables. The kept copy owns its slices, so a caller mutating its
// Config after the run cannot make a stale fan-out look current.
func (sw *simWorker) useConfig(cfg frontend.Config) {
	if sw.fo != nil && reflect.DeepEqual(sw.cfg, cfg) {
		return
	}
	sw.drop()
	cfg.Branch.HistoryLengths = slices.Clone(cfg.Branch.HistoryLengths)
	sw.cfg = cfg
}

// fanOut returns a fan-out in its freshly built state for kinds, reusing
// the worker's previous one when the roster matches. The configuration
// is the run's, fixed by useConfig; the warm-up limit comes from the
// stream (frontend.WarmupFromStream).
func (sw *simWorker) fanOut(kinds []frontend.PolicyKind) (*frontend.FanOut, error) {
	if sw.fo != nil && slices.Equal(sw.kinds, kinds) {
		sw.fo.Reset(frontend.WarmupFromStream)
		return sw.fo, nil
	}
	sw.drop()
	fo, err := frontend.NewFanOut(sw.cfg, kinds, frontend.WarmupFromStream)
	if err != nil {
		return nil, err
	}
	sw.fo, sw.kinds = fo, kinds
	return fo, nil
}

// drop discards the worker's fan-out; the next task builds a new one.
func (sw *simWorker) drop() { sw.fo, sw.kinds = nil, nil }

// RunContext simulates every workload under every policy. The schedule
// is a queue of workload tasks drained by Options.Parallelism workers,
// taken from the Runner and returned to it when the run ends.
// Each task executes its workload's program exactly once and feeds the
// record stream to every policy the result cache could not answer in
// lockstep (frontend.FanOut), which also derives the warm-up window from
// that stream, so executor interpretation costs 1× per workload instead
// of once per policy plus a counting pass. Cache hits stay per-cell: a
// cell served from disk is reported via obs.PolicyCached and excluded
// from the fused replay. Because fan-out
// lanes are fully independent and the stream is deterministic, results
// are bit-identical to per-policy replays at any parallelism. Workload
// failures are aggregated with errors.Join rather than truncated to
// the first; a context cancellation aborts in-flight replays promptly
// and is reported via ctx.Err(), with every unfinished workload still
// emitting a WorkloadFailed event so RunStats accounts for the whole
// suite.
//
// The scheduler is fault-tolerant: a panicking task is contained to a
// PanicError failing only its workload while the queue drains; tasks
// are bounded by Options.TaskTimeout and a progress-based stall
// watchdog (Options.StallTimeout); transient failures (IsRetryable)
// are re-attempted up to Options.MaxRetries times with deterministic
// backoff; and Options.KeepGoing turns cell failures into annotations
// on the returned Measurements instead of a nil result.
func (rn *Runner) RunContext(ctx context.Context, opts Options) (*Measurements, error) {
	return rn.run(ctx, opts, nil)
}

// run is RunContext that, given an OPT sink, also has every task fill it
// with its workload's OPT MPKI (ComputeHeadroom).
func (rn *Runner) run(ctx context.Context, opts Options, sink *optSink) (*Measurements, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	collector := obs.NewCollector()
	r := newRunState(opts, obs.Multi(collector.Observe, opts.Observer))
	if sink != nil {
		sink.mpki = make([]float64, len(r.states))
		sink.have = make([]bool, len(r.states))
		r.opt = sink
	}
	out, n, np := r.out, len(r.states), len(opts.Policies)
	var quarantined0 int64
	if opts.Cache != nil {
		quarantined0 = opts.Cache.Quarantined()
	}
	runStart := time.Now()
	r.observe(obs.Event{Kind: obs.RunStart, Workloads: n, Policies: np})

	// Every task is queued up front, one per workload, in suite order.
	// Workers that observe a cancelled context drain the queue without
	// simulating, so every workload is accounted for exactly once.
	tasks := make(chan task, n)
	for wi := 0; wi < n; wi++ {
		tasks <- task{wi}
	}
	close(tasks)

	workers := opts.Parallelism
	if workers > n {
		workers = n
	}
	// Parallelism beyond one worker per workload splits lane replay
	// inside each task instead of idling.
	r.laneWorkers = opts.Parallelism / workers
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw := rn.take(opts.Config)
			for t := range tasks {
				err := ctx.Err()
				if err == nil {
					err = r.runTaskRetrying(ctx, t, sw)
				}
				r.finishTask(ctx, t.wi, err)
			}
			rn.put(sw)
		}()
	}
	wg.Wait()
	r.observe(obs.Event{Kind: obs.RunDone, Workloads: n, Elapsed: time.Since(runStart)})
	out.Stats = collector.Stats()
	if opts.Cache != nil {
		out.Stats.CacheQuarantines = int(opts.Cache.Quarantined() - quarantined0)
	}

	all := make([]error, 0, n+1)
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	for _, e := range r.errs {
		if e != nil {
			all = append(all, e)
		}
	}
	err = errors.Join(all...)
	switch {
	case err == nil:
		return out, nil
	case !opts.KeepGoing:
		return nil, err
	case ctx.Err() != nil:
		// Keep-going cannot outlast the caller's context: hand back the
		// partial measurements alongside the cancellation.
		return out, err
	default:
		// Keep-going run with cell failures: the suite completed, failed
		// workloads are annotated on the measurements (Raw[].Err,
		// Stats.Failed) and dropped by Completed().
		return out, nil
	}
}

// newRunState lays out one run of prepared opts: the Measurements with
// every result slot preallocated, and idle per-workload state. observe
// receives every event the run emits.
func newRunState(opts Options, observe obs.Observer) *runState {
	n, np := opts.Source.Len(), len(opts.Policies)
	out := &Measurements{
		Options: opts,
		// One Spec per workload is the runner's only per-suite
		// materialization: it is the output index of the vectors below.
		// Programs stay lazy — synthesized inside each task, released
		// when it retires.
		Specs:      workload.Materialize(opts.Source),
		Policies:   opts.Policies,
		ICacheMPKI: map[frontend.PolicyKind][]float64{},
		BTBMPKI:    map[frontend.PolicyKind][]float64{},
		BranchMPKI: make([]float64, n),
		Raw:        make([]WorkloadResult, n),
	}
	for _, k := range opts.Policies {
		out.ICacheMPKI[k] = make([]float64, n)
		out.BTBMPKI[k] = make([]float64, n)
	}

	r := &runState{
		opts:    opts,
		out:     out,
		states:  make([]wlState, n),
		errs:    make([]error, n),
		observe: observe,
	}
	for wi := range r.states {
		// Result slots are preallocated so tasks write disjoint elements
		// without a lock.
		out.Raw[wi] = WorkloadResult{Spec: out.Specs[wi],
			Results: make([]frontend.Result, np), Completed: make([]bool, np)}
	}
	return r
}

// taskWatch scopes one task attempt's context: an absolute deadline
// (Options.TaskTimeout, cause ErrTaskTimeout) and a progress-based
// stall watchdog (Options.StallTimeout, cause ErrTaskStalled) layered
// over the run context. With both disabled it is a free passthrough.
type taskWatch struct {
	ctx  context.Context
	last atomic.Int64  // UnixNano of the latest progress report
	done chan struct{} // closes to stop the watchdog goroutine
	stop []func()      // context cancels, released on close
}

func newTaskWatch(ctx context.Context, taskTimeout, stallTimeout time.Duration) *taskWatch {
	w := &taskWatch{}
	if taskTimeout > 0 {
		tctx, cancel := context.WithTimeoutCause(ctx, taskTimeout, ErrTaskTimeout)
		ctx = tctx
		w.stop = append(w.stop, cancel)
	}
	if stallTimeout > 0 {
		tctx, cancel := context.WithCancelCause(ctx)
		ctx = tctx
		w.stop = append(w.stop, func() { cancel(nil) })
		w.done = make(chan struct{})
		w.last.Store(time.Now().UnixNano())
		poll := stallTimeout / 4
		if poll < time.Millisecond {
			poll = time.Millisecond
		}
		go func() {
			tick := time.NewTicker(poll)
			defer tick.Stop()
			for {
				select {
				case <-w.done:
					return
				case <-tctx.Done():
					return
				case <-tick.C:
					if time.Since(time.Unix(0, w.last.Load())) > stallTimeout {
						cancel(ErrTaskStalled)
						return
					}
				}
			}
		}()
	}
	w.ctx = ctx
	return w
}

// touch records task progress, resetting the stall watchdog.
func (w *taskWatch) touch() {
	if w.done != nil {
		w.last.Store(time.Now().UnixNano())
	}
}

// close stops the watchdog and releases the attempt's contexts.
func (w *taskWatch) close() {
	if w.done != nil {
		close(w.done)
	}
	for _, stop := range w.stop {
		stop()
	}
}

// fault translates an abort of the task's context into its cause, so a
// tripped deadline surfaces as ErrTaskTimeout (and a stall as
// ErrTaskStalled) rather than a bare context error. Aborts of the run
// context pass through as-is, keeping RunContext's once-per-run
// cancellation reporting intact.
func (w *taskWatch) fault(err error) error {
	if err == nil {
		return nil
	}
	if cerr := w.ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		if cause := context.Cause(w.ctx); cause != nil {
			return cause
		}
	}
	return err
}

// runTaskRetrying drives one task through runTaskSafe, re-attempting
// transient failures (IsRetryable) up to Options.MaxRetries times with
// exponential, deterministically-jittered backoff. Each retry emits an
// obs.TaskRetry event; a cancelled run context stops the loop. Cells
// completed by an earlier attempt (recorded before a transient cache
// failure, say) are skipped by the retry, which fuses the remainder.
func (r *runState) runTaskRetrying(ctx context.Context, t task, sw *simWorker) error {
	opts := r.opts
	maxRetries := opts.MaxRetries
	if maxRetries < 0 {
		maxRetries = 0
	}
	for attempt := 0; ; attempt++ {
		err := r.runTaskSafe(ctx, t, sw)
		if err == nil || !IsRetryable(err) || attempt >= maxRetries || ctx.Err() != nil {
			return err
		}
		retry := attempt + 1
		r.observe(obs.Event{Kind: obs.TaskRetry,
			Workload: r.out.Specs[t.wi].Name, WorkloadIndex: t.wi,
			Attempt: retry, Err: err})
		seed := opts.ExecSeed ^ uint64(t.wi)<<20
		if delay := retryDelay(opts.RetryBackoff, retry, seed); delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return err
			case <-timer.C:
			}
		}
	}
}

// runTaskSafe contains one task attempt's panics: a panicking replay
// (or injected panic) becomes a PanicError carrying the goroutine
// stack, failing that workload while the rest of the queue drains. Any
// failed attempt — error, timeout or panic — drops the worker's
// fan-out, which may have stopped mid-replay.
func (r *runState) runTaskSafe(ctx context.Context, t task, sw *simWorker) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
		if err != nil {
			sw.drop()
		}
	}()
	return r.runTask(ctx, t, sw)
}

// runTask executes one workload task: per-cell result-cache lookups,
// program generation, one fused replay of every cell the cache could not
// answer, the OPT pass when the run owes one, and per-cell cache fills.
// Cells completed and an OPT pass done by an earlier attempt of this
// task are skipped. The replay runs on the worker's reusable fan-out.
func (r *runState) runTask(ctx context.Context, t task, sw *simWorker) error {
	opts := r.opts
	st := &r.states[t.wi]
	spec := r.out.Specs[t.wi]
	n, np := len(r.out.Specs), len(opts.Policies)
	target := targetFor(spec, opts.Scale)

	if !st.started {
		st.start = time.Now()
		st.started = true
		r.observe(obs.Event{Kind: obs.WorkloadStart, Workload: spec.Name, WorkloadIndex: t.wi,
			Workloads: n, Policies: np})
	}

	// The watch scopes this attempt: its deadline and stall watchdog die
	// with the attempt, so a retry starts with a fresh budget.
	w := newTaskWatch(ctx, opts.TaskTimeout, opts.StallTimeout)
	defer w.close()

	if opts.Faults != nil {
		if err := opts.Faults.Fire(w.ctx, faultinject.OpTask); err != nil {
			return w.fault(err)
		}
	}

	// Cache hits stay per-cell: each answered cell is recorded and
	// reported (PolicyCached) individually, and only the remainder joins
	// the fused replay. A retry lands here with earlier attempts' cells
	// already marked completed and skips them the same way.
	completed := r.out.Raw[t.wi].Completed
	keys := make([]resultcache.Key, np)
	missing := make([]int, 0, np)
	for pi, kind := range opts.Policies {
		if completed[pi] {
			continue
		}
		if opts.Cache != nil {
			key, err := resultcache.KeyFor(spec, opts.Config, kind, opts.ExecSeed, target)
			if err != nil {
				return err
			}
			keys[pi] = key
			start := time.Now()
			if res, ok := opts.Cache.Get(key); ok && res.Policy == kind {
				r.record(t.wi, pi, res)
				r.observe(obs.Event{Kind: obs.PolicyCached, Workload: spec.Name, WorkloadIndex: t.wi,
					Policy: kind.String(), PolicyIndex: pi, Policies: np,
					Records: res.Records, Instructions: res.TotalInstructions, Elapsed: time.Since(start)})
				continue
			}
		}
		missing = append(missing, pi)
	}
	needOPT := r.opt != nil && !r.opt.have[t.wi]
	if len(missing) == 0 && !needOPT {
		return nil
	}

	// The program lives in the worker's generator; a retry replays the
	// kept st.prog and never regenerates over it.
	if st.prog == nil {
		prog, err := sw.gen.Generate(spec.Profile)
		if err != nil {
			return err
		}
		st.prog = prog
	}

	// One fused traversal drives every missing cell. Progress ticks are
	// labeled with the fan-out width and attributed to the first missing
	// cell, whose PolicyDone retires the in-flight slot. An OPT pass
	// whose cells the cache all answered streams one LRU lane only to
	// fill the access log; its ticks go to the LRU cell, and it records
	// nothing.
	kinds := make([]frontend.PolicyKind, len(missing))
	for i, pi := range missing {
		kinds[i] = opts.Policies[pi]
	}
	tickIndex := slices.Index(opts.Policies, frontend.PolicyLRU)
	if len(missing) == 0 {
		kinds = append(kinds, frontend.PolicyLRU)
	} else {
		tickIndex = missing[0]
	}
	start := time.Now()
	label := fmt.Sprintf("fanout(%d)", len(kinds))
	so := frontend.StreamOptions{
		ProgressEvery: opts.ProgressEvery,
		Progress: func(records, instructions uint64) error {
			w.touch()
			if opts.Faults != nil {
				if err := opts.Faults.Fire(w.ctx, faultinject.OpProgress); err != nil {
					return err
				}
			}
			if err := w.ctx.Err(); err != nil {
				return err
			}
			r.observe(obs.Event{Kind: obs.Tick, Workload: spec.Name, WorkloadIndex: t.wi,
				Policy: label, PolicyIndex: tickIndex, Policies: np,
				Records: records, Instructions: instructions, Elapsed: time.Since(start)})
			return nil
		},
	}
	fo, err := sw.fanOut(kinds)
	if err != nil {
		return err
	}
	var log *frontend.AccessLog
	if needOPT {
		log = &sw.log
	}
	fo.TapAccesses(log)
	results, err := fo.StreamProgram(st.prog, opts.ExecSeed, target, r.laneWorkers, so)
	if err != nil {
		return w.fault(err)
	}
	if needOPT {
		mpki, err := optMPKI(opts.Config, log, results[0])
		if err != nil {
			return err
		}
		// The task's deadline covers the OPT pass too.
		if err := w.ctx.Err(); err != nil {
			return w.fault(err)
		}
		// OPT is stored before any cell is recorded, so a retry after a
		// failed cache fill below does not repeat it.
		r.opt.mpki[t.wi], r.opt.have[t.wi] = mpki, true
	}
	if len(missing) == 0 {
		return nil
	}
	// Per-cell completion: fill the cache, then record, then report. A
	// cache fill happens before its cell is recorded, so a failed write
	// surfaces as a retryable error while that cell is still side-effect
	// free — the retry re-simulates exactly the unrecorded remainder
	// (lanes are independent, so the re-fused subset stays
	// bit-identical). The fused wall time is attributed evenly so
	// per-policy totals remain meaningful.
	elapsed := time.Since(start)
	share := elapsed / time.Duration(len(missing))
	for i, pi := range missing {
		res := results[i]
		kind := opts.Policies[pi]
		if opts.Cache != nil {
			if err := opts.Cache.Put(keys[pi], res); err != nil {
				return &RetryableError{fmt.Errorf("result cache put: %w", err)}
			}
		}
		r.record(t.wi, pi, res)
		r.observe(obs.Event{Kind: obs.PolicyDone, Workload: spec.Name, WorkloadIndex: t.wi,
			Policy: kind.String(), PolicyIndex: pi, Policies: np,
			Records: res.Records, Instructions: res.TotalInstructions, Elapsed: share,
			CacheMiss: opts.Cache != nil})
	}
	return nil
}

// record stores one cell's result. Every workload owns distinct slice
// elements and runs on one worker, so no lock is needed.
func (r *runState) record(wi, pi int, res frontend.Result) {
	kind := r.opts.Policies[pi]
	r.out.Raw[wi].Results[pi] = res
	r.out.Raw[wi].Completed[pi] = true
	r.out.ICacheMPKI[kind][wi] = res.ICacheMPKI()
	r.out.BTBMPKI[kind][wi] = res.BTBMPKI()
	if pi == 0 {
		r.out.BranchMPKI[wi] = res.BranchMPKI()
	}
}

// finishTask retires one workload: emits its completion event, releases
// the program, and records the workload error (cancellations are
// reported once via ctx.Err() by RunContext, not once per aborted
// workload — but they still emit a WorkloadFailed event so RunStats
// does not under-report the suite).
func (r *runState) finishTask(ctx context.Context, wi int, err error) {
	st := &r.states[wi]
	st.prog = nil // release for GC; this workload is done
	spec := r.out.Specs[wi]
	n := len(r.out.Specs)
	var elapsed time.Duration
	if st.started {
		elapsed = time.Since(st.start)
	}
	if err == nil {
		r.observe(obs.Event{Kind: obs.WorkloadDone, Workload: spec.Name, WorkloadIndex: wi,
			Workloads: n, Elapsed: elapsed})
		return
	}
	r.out.Raw[wi].Err = err
	r.observe(obs.Event{Kind: obs.WorkloadFailed, Workload: spec.Name, WorkloadIndex: wi,
		Workloads: n, Elapsed: elapsed, Err: err})
	if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
		r.errs[wi] = fmt.Errorf("sim: workload %s: %w", spec.Name, err)
	}
}
