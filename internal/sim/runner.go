// Package sim is the experiment harness: it runs the workload suite
// across replacement policies and cache configurations in parallel, and
// defines one experiment per table and figure of the paper's evaluation
// section, each regenerating the corresponding rows or series.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// every uncached lane in lockstep (frontend.FanOut), so adding
	// policies costs lane work, not extra executor passes. A run starts
	// min(Parallelism, workloads) workers, each simulating one task at a
	// time. Results are bit-identical at any setting. Defaults
	// to GOMAXPROCS.
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
	// from disk instead of replayed, which makes repeat runs and later
	// grids skip the cells earlier ones simulated. Hits are reported via
	// obs.PolicyCached events and RunStats cache counters. Only result
	// cells are stored: the warm-up window comes from the fused replay
	// itself, so a workload writes one entry per cell.
	Cache *resultcache.Cache
	// TaskTimeout bounds one workload task's wall time — program
	// generation, the fused replay of all its uncached cells and, under
	// a HeadroomVariant, its OPT pass; 0 disables. A task over deadline
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
	// per attempt up to MaxRetryBackoff, with deterministic jitter; 0
	// defaults to DefaultRetryBackoff, negative disables the delay.
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
	o.Config = orDefault(o.Config)
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

// orDefault returns cfg, or the paper's configuration in place of a zero
// one.
func orDefault(cfg frontend.Config) frontend.Config {
	if cfg.ICache == (frontend.ICacheConfig{}) {
		return frontend.DefaultConfig()
	}
	return cfg
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
	// Checked before defaulting, which would turn -Inf into 1.
	if err := CheckScale(o.Scale); err != nil {
		return Options{}, err
	}
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// CheckScale rejects a Scale whose budgets cannot be counted: a
// non-finite one, or one that takes the largest suite budget
// (workload.MaxDefaultInstructions) past the uint64 targetFor converts
// it to.
func CheckScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("sim: scale %v is not finite", scale)
	}
	if float64(workload.MaxDefaultInstructions)*scale >= 0x1p64 {
		return fmt.Errorf("sim: scale %v takes the %d-instruction budget past 2^64 instructions", scale, workload.MaxDefaultInstructions)
	}
	return nil
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
	// miss counts. Every variant of a grid shares its run's Stats.
	Stats *obs.RunStats
	// opt holds the per-workload OPT MPKI of a headroom variant
	// (HeadroomVariant); nil for any other.
	opt *optSink
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

// Variant is one configuration of an experiment grid: the policies a
// grid runs under one front-end configuration. A zero Config takes the
// run's Options.Config, and nil Policies take Options.Policies.
type Variant struct {
	// Name labels the variant in its experiment's rows.
	Name     string
	Config   frontend.Config
	Policies []frontend.PolicyKind
	// headroom has every task also run Belady's OPT over the variant's
	// demand I-cache accesses (HeadroomVariant).
	headroom bool
}

// RunGrid simulates every workload under every variant and returns one
// Measurements per variant, each bit-identical to a RunContext of opts
// under the variant's Config and Policies; the other Options govern the
// whole grid. The variants' configurations must share one front
// (frontend.SameFront): a variant that needs another is rejected before
// any task runs. A cell — one policy under one Config — that several
// variants list runs once. Options.Parallelism workers drain a queue of
// one task per workload. A task executes its workload's program once and
// streams it once through one fan-out of the cells the result cache
// could not answer, which also derives the warm-up window. Cache hits
// stay per-cell and are reported via obs.PolicyCached. Lanes are
// independent and the stream deterministic, so results are
// bit-identical to per-policy replays at any parallelism.
//
// Workload failures are aggregated with errors.Join. A cancelled context
// aborts in-flight replays promptly and is reported via ctx.Err(), every
// unfinished workload still emitting a WorkloadFailed event. A panicking
// task fails only its workload (PanicError); tasks are bounded by
// Options.TaskTimeout and Options.StallTimeout; transient failures
// (IsRetryable) are retried up to Options.MaxRetries times; and
// Options.KeepGoing turns cell failures into annotations on the returned
// Measurements instead of a nil result.
func RunGrid(ctx context.Context, opts Options, variants []Variant) ([]*Measurements, error) {
	var rn Runner
	return rn.grid(ctx, opts, variants)
}

// Runner runs suites on simulation workers it keeps between runs. A
// worker is a fan-out plus a program generator (simWorker); building
// one costs a few megabytes of tables, chunks and arenas, so a caller
// that runs many small suites — a daemon running shard after shard —
// holds one Runner and pays that once per concurrent worker instead of
// once per run. The package-level
// RunContext is a one-shot Runner, so both go through the same code.
//
// A Runner is safe for concurrent use. It never holds more workers than
// the most its runs have used at once. Reuse does not change results: a
// worker rebuilds its fan-out when the run's cells — each policy with
// its frontend.Config — differ from the ones it was built for, and a
// failed attempt discards it. The zero value is ready to use.
type Runner struct {
	mu   sync.Mutex
	idle []*simWorker
}

// take hands out an idle worker, or a new one, ready for a run over
// cells.
func (rn *Runner) take(cells []frontend.Cell) *simWorker {
	rn.mu.Lock()
	var sw *simWorker
	if n := len(rn.idle); n > 0 {
		sw, rn.idle = rn.idle[n-1], rn.idle[:n-1]
	}
	rn.mu.Unlock()
	if sw == nil {
		sw = &simWorker{}
	}
	sw.useCells(cells)
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
// cell that the result cache could not answer, in one fused traversal.
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

// grid is a run's cells: every distinct (policy, Config) pair its
// variants list, all on one front, with the variant slots each fills.
type grid struct {
	cells []frontend.Cell
	slots [][]slot   // per cell: every (variant, policy position) it fills
	opt   []*optSink // per cell: a headroom variant's OPT, on its LRU cell
}

// slot is one policy position pi of variant v.
type slot struct{ v, pi int }

// cell returns the index of the cell for kind under cfg. It adds one
// unless one of the first n cells, those of earlier variants, is equal:
// within one variant every position gets its own cell, as it gets its
// own lane in RunContext.
func (g *grid) cell(n int, kind frontend.PolicyKind, cfg frontend.Config) int {
	for c := range g.cells[:n] {
		if g.cells[c].Kind == kind && reflect.DeepEqual(g.cells[c].Config, cfg) {
			return c
		}
	}
	g.cells = append(g.cells, frontend.Cell{Kind: kind, Config: cfg})
	g.slots = append(g.slots, nil)
	g.opt = append(g.opt, nil)
	return len(g.cells) - 1
}

// runState carries one grid run's shared pieces.
type runState struct {
	opts    Options
	grid    grid
	outs    []*Measurements // one per variant
	states  []wlState
	errs    []error // one slot per workload, joined after the wait
	observe obs.Observer
}

// simWorker is one worker goroutine's reusable simulator: the fan-out it
// built for the roster of cells it last fused. Consecutive tasks with
// the same roster reset it in place instead of reallocating lanes,
// tables and decision chunks; a different roster (a partial result-cache
// hit) rebuilds it, and a failed attempt drops it, so no state from an
// aborted replay can reach the next task.
type simWorker struct {
	cells []frontend.Cell // what rosters index; owns its slices
	fan   rosterFanOut
	// gen generates every program the worker runs into storage reused
	// across workloads. A workload's attempts all run on this worker and
	// finishTask releases its program before the next task starts, so a
	// program is never overwritten while it is in use.
	gen workload.Generator
	// log receives a fused pass's demand accesses when the run owes the
	// workload an OPT pass; it keeps its storage across workloads.
	log frontend.AccessLog
}

// rosterFanOut is a fan-out and the cells of its lanes, in order.
type rosterFanOut struct {
	roster []int
	fo     *frontend.FanOut
}

// useCells readies a worker, possibly kept from another run, for a run
// over cells, dropping its fan-out unless it was built for equal
// cells: deeply equal, since Config holds the perceptron's
// HistoryLengths slice. It runs once per run, so a task compares only
// roster indices. The kept copy owns its slices, so a caller mutating a
// Config after the run cannot make a stale fan-out look current.
func (sw *simWorker) useCells(cells []frontend.Cell) {
	if reflect.DeepEqual(sw.cells, cells) {
		return
	}
	sw.drop()
	sw.cells = slices.Clone(cells)
	for i := range sw.cells {
		b := &sw.cells[i].Config.Branch
		b.HistoryLengths = slices.Clone(b.HistoryLengths)
	}
}

// fanOut returns a fan-out in its freshly built state for the cells of
// roster, reusing the worker's previous one when the roster matches. The
// warm-up limit comes from the stream (frontend.WarmupFromStream).
func (sw *simWorker) fanOut(roster []int) (*frontend.FanOut, error) {
	f := &sw.fan
	if f.fo != nil && slices.Equal(f.roster, roster) {
		f.fo.Reset(frontend.WarmupFromStream)
		return f.fo, nil
	}
	cells := make([]frontend.Cell, len(roster))
	for i, c := range roster {
		cells[i] = sw.cells[c]
	}
	fo, err := frontend.NewCellFanOut(cells, frontend.WarmupFromStream)
	*f = rosterFanOut{roster: slices.Clone(roster), fo: fo}
	return fo, err
}

// drop discards the worker's fan-out; the next task builds a new one.
func (sw *simWorker) drop() { sw.fan = rosterFanOut{} }

// RunContext simulates every workload under every policy: the
// one-variant grid (RunGrid), on workers taken from the Runner and
// returned to it when the run ends.
func (rn *Runner) RunContext(ctx context.Context, opts Options) (*Measurements, error) {
	ms, err := rn.grid(ctx, opts, []Variant{{}})
	if ms == nil {
		return nil, err
	}
	return ms[0], err
}

// grid runs variants as one schedule (RunGrid) on this Runner's workers.
func (rn *Runner) grid(ctx context.Context, opts Options, variants []Variant) ([]*Measurements, error) {
	opts, err := opts.prepare()
	if err != nil {
		return nil, err
	}
	collector := obs.NewCollector()
	r, err := newRunState(opts, variants, obs.Multi(collector.Observe, opts.Observer))
	if err != nil {
		return nil, err
	}
	n, nc := len(r.states), len(r.grid.cells)
	var quarantined0 int64
	if opts.Cache != nil {
		quarantined0 = opts.Cache.Quarantined()
	}
	runStart := time.Now()
	r.observe(obs.Event{Kind: obs.RunStart, Workloads: n, Policies: nc})

	// Every task is queued up front, one per workload, in suite order.
	// Workers that observe a cancelled context drain the queue without
	// simulating, so every workload is accounted for exactly once.
	tasks := make(chan task, n)
	for wi := 0; wi < n; wi++ {
		tasks <- task{wi}
	}
	close(tasks)

	workers := min(opts.Parallelism, n)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw := rn.take(r.grid.cells)
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
	stats := collector.Stats()
	if opts.Cache != nil {
		stats.CacheQuarantines = int(opts.Cache.Quarantined() - quarantined0)
	}
	for _, m := range r.outs {
		m.Stats = stats
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
		return r.outs, nil
	case !opts.KeepGoing:
		return nil, err
	case ctx.Err() != nil:
		// Keep-going cannot outlast the caller's context: hand back the
		// partial measurements alongside the cancellation.
		return r.outs, err
	default:
		// Keep-going run with cell failures: the suite completed, failed
		// workloads are annotated on the measurements (Raw[].Err,
		// Stats.Failed) and dropped by Completed().
		return r.outs, nil
	}
}

// newRunState lays out one run of prepared opts over variants: each
// variant's Config and Policies, defaulted from opts and validated; the
// grid of their cells, which must share the first variant's front; one
// Measurements per variant with every result slot preallocated; and
// idle per-workload state. observe receives every event the run emits.
func newRunState(opts Options, variants []Variant, observe obs.Observer) (*runState, error) {
	if len(variants) == 0 {
		return nil, errors.New("sim: a grid needs at least one variant")
	}
	n := opts.Source.Len()
	// One Spec per workload is the runner's only per-suite
	// materialization: it is the output index of every variant's vectors.
	// Programs stay lazy — synthesized inside each task, released when it
	// retires.
	specs := workload.Materialize(opts.Source)
	r := &runState{
		opts:    opts,
		outs:    make([]*Measurements, len(variants)),
		states:  make([]wlState, n),
		errs:    make([]error, n),
		observe: observe,
	}
	for v, va := range variants {
		vo := opts
		if va.Config.ICache != (frontend.ICacheConfig{}) {
			vo.Config = va.Config
		}
		if va.Policies != nil {
			vo.Policies = va.Policies
		}
		if err := vo.validate(); err != nil {
			return nil, err
		}
		if v > 0 && !frontend.SameFront(r.outs[0].Options.Config, vo.Config) {
			return nil, fmt.Errorf("sim: variant %d (%q) needs a different front than variant 0: a grid's variants must agree on instruction size, block size, branch predictor and warm-up rule", v, va.Name)
		}
		out := newMeasurements(vo, specs)
		first := len(r.grid.cells)
		for pi, kind := range vo.Policies {
			c := r.grid.cell(first, kind, vo.Config)
			r.grid.slots[c] = append(r.grid.slots[c], slot{v, pi})
			if va.headroom && kind == frontend.PolicyLRU && out.opt == nil {
				if r.grid.opt[c] == nil {
					r.grid.opt[c] = &optSink{mpki: make([]float64, n), have: make([]bool, n)}
				}
				out.opt = r.grid.opt[c]
			}
		}
		if va.headroom && out.opt == nil {
			return nil, errors.New("sim: headroom needs LRU in its policies: the gap each policy closes is measured from LRU")
		}
		r.outs[v] = out
	}
	return r, nil
}

// newMeasurements preallocates the Measurements of prepared opts over
// specs, so tasks write disjoint result slots without a lock.
func newMeasurements(opts Options, specs []workload.Spec) *Measurements {
	n, np := len(specs), len(opts.Policies)
	m := &Measurements{
		Options:    opts,
		Specs:      specs,
		Policies:   opts.Policies,
		ICacheMPKI: map[frontend.PolicyKind][]float64{},
		BTBMPKI:    map[frontend.PolicyKind][]float64{},
		BranchMPKI: make([]float64, n),
		Raw:        make([]WorkloadResult, n),
	}
	for _, k := range opts.Policies {
		m.ICacheMPKI[k] = make([]float64, n)
		m.BTBMPKI[k] = make([]float64, n)
	}
	for wi := range m.Raw {
		m.Raw[wi] = WorkloadResult{Spec: specs[wi], Results: make([]frontend.Result, np), Completed: make([]bool, np)}
	}
	return m
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
			Workload: r.outs[0].Specs[t.wi].Name, WorkloadIndex: t.wi,
			Attempt: retry, Err: err})
		seed := opts.ExecSeed ^ uint64(t.wi)<<20
		if delay := RetryDelay(opts.RetryBackoff, max(opts.RetryBackoff, MaxRetryBackoff), retry, seed); delay > 0 {
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
// program generation, one fused replay of every cell the cache could
// not answer, the OPT passes the run owes, and per-cell cache fills.
// Cells completed and OPT passes done by an earlier attempt of this
// task are skipped.
func (r *runState) runTask(ctx context.Context, t task, sw *simWorker) error {
	opts, g := r.opts, &r.grid
	st := &r.states[t.wi]
	spec := r.outs[0].Specs[t.wi]
	n, nc := len(r.states), len(g.cells)
	target := targetFor(spec, opts.Scale)

	if !st.started {
		st.start = time.Now()
		st.started = true
		r.observe(obs.Event{Kind: obs.WorkloadStart, Workload: spec.Name, WorkloadIndex: t.wi,
			Workloads: n, Policies: nc})
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
	var keys []resultcache.Key
	if opts.Cache != nil {
		keys = make([]resultcache.Key, nc)
	}
	// The roster is the cells the cache could not answer.
	roster := make([]int, 0, nc)
	for c, cell := range g.cells {
		// A cell's slots are recorded together, so its first one tells.
		if s := g.slots[c][0]; r.outs[s.v].Raw[t.wi].Completed[s.pi] {
			continue
		}
		if opts.Cache != nil {
			key, err := resultcache.KeyFor(spec, cell.Config, cell.Kind, opts.ExecSeed, target)
			if err != nil {
				return err
			}
			keys[c] = key
			start := time.Now()
			if res, ok := opts.Cache.Get(key); ok && res.Policy == cell.Kind {
				r.record(t.wi, c, res)
				r.observe(obs.Event{Kind: obs.PolicyCached, Workload: spec.Name, WorkloadIndex: t.wi,
					Policy: cell.Kind.String(), PolicyIndex: c, Policies: nc,
					Records: res.Records, Instructions: res.TotalInstructions, Elapsed: time.Since(start)})
				continue
			}
		}
		roster = append(roster, c)
	}

	// An OPT pass the run owes needs one lane even when the cache
	// answered every cell: its LRU cell's, streamed only to fill the
	// access log.
	logOnly, needOPT := len(roster) == 0, false
	for c, sink := range g.opt {
		if sink != nil && !sink.have[t.wi] {
			if logOnly && !needOPT {
				roster = append(roster, c)
			}
			needOPT = true
		}
	}
	if len(roster) == 0 {
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
	// Progress ticks are labeled with the fan-out width and attributed
	// to the roster's first cell, whose PolicyDone retires the in-flight
	// slot.
	start := time.Now()
	label := fmt.Sprintf("fanout(%d)", len(roster))
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
				Policy: label, PolicyIndex: roster[0], Policies: nc,
				Records: records, Instructions: instructions, Elapsed: time.Since(start)})
			return nil
		},
	}
	fo, err := sw.fanOut(roster)
	if err != nil {
		return err
	}
	var log *frontend.AccessLog
	if needOPT {
		log = &sw.log
	}
	fo.TapAccesses(log)
	results, err := fo.StreamProgram(st.prog, opts.ExecSeed, target, so)
	if err != nil {
		return w.fault(err)
	}
	for c, sink := range g.opt {
		if !needOPT || sink == nil || sink.have[t.wi] {
			continue
		}
		mpki, err := optMPKI(g.cells[c].Config, log, results[0])
		if err != nil {
			return err
		}
		// The task's deadline covers the OPT pass too.
		if err := w.ctx.Err(); err != nil {
			return w.fault(err)
		}
		// OPT is stored before any cell is recorded, so a retry after a
		// failed cache fill below does not repeat it.
		sink.mpki[t.wi], sink.have[t.wi] = mpki, true
	}
	if logOnly {
		return nil
	}
	// Per-cell completion: fill the cache, then record, then report. A
	// cache fill happens before its cell is recorded, so a failed write
	// surfaces as a retryable error while that cell is still side-effect
	// free — the retry re-simulates exactly the unrecorded remainder
	// (lanes are independent, so the re-fused subset stays
	// bit-identical). The fused wall time is attributed evenly so
	// per-policy totals remain meaningful.
	share := time.Since(start) / time.Duration(len(roster))
	for i, c := range roster {
		res := results[i]
		if opts.Cache != nil {
			if err := opts.Cache.Put(keys[c], res); err != nil {
				return &RetryableError{fmt.Errorf("result cache put: %w", err)}
			}
		}
		r.record(t.wi, c, res)
		r.observe(obs.Event{Kind: obs.PolicyDone, Workload: spec.Name, WorkloadIndex: t.wi,
			Policy: g.cells[c].Kind.String(), PolicyIndex: c, Policies: nc,
			Records: res.Records, Instructions: res.TotalInstructions, Elapsed: share,
			CacheMiss: opts.Cache != nil})
	}
	return nil
}

// record stores one cell's result in every variant slot it fills. Every
// workload owns distinct slice elements and runs on one worker, so no
// lock is needed.
func (r *runState) record(wi, c int, res frontend.Result) {
	for _, s := range r.grid.slots[c] {
		out := r.outs[s.v]
		kind := out.Policies[s.pi]
		out.Raw[wi].Results[s.pi] = res
		out.Raw[wi].Completed[s.pi] = true
		out.ICacheMPKI[kind][wi] = res.ICacheMPKI()
		out.BTBMPKI[kind][wi] = res.BTBMPKI()
		if s.pi == 0 {
			out.BranchMPKI[wi] = res.BranchMPKI()
		}
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
	spec := r.outs[0].Specs[wi]
	n := len(r.states)
	var elapsed time.Duration
	if st.started {
		elapsed = time.Since(st.start)
	}
	if err == nil {
		r.observe(obs.Event{Kind: obs.WorkloadDone, Workload: spec.Name, WorkloadIndex: wi,
			Workloads: n, Elapsed: elapsed})
		return
	}
	for _, out := range r.outs {
		out.Raw[wi].Err = err
	}
	r.observe(obs.Event{Kind: obs.WorkloadFailed, Workload: spec.Name, WorkloadIndex: wi,
		Workloads: n, Elapsed: elapsed, Err: err})
	if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
		r.errs[wi] = fmt.Errorf("sim: workload %s: %w", spec.Name, err)
	}
}
