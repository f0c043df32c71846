package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/sim"
)

// Sentinel causes and admission errors.
var (
	// ErrCancelled is the cancellation cause of a DELETE /runs/{id}.
	ErrCancelled = errors.New("serve: run cancelled by request")
	// ErrDraining is the cancellation cause of a drain deadline, and
	// the submission error while the daemon drains (HTTP 503).
	ErrDraining = errors.New("serve: daemon is draining")
	// ErrBusy is the admission-control rejection: every executor slot
	// busy and the queue full (HTTP 429).
	ErrBusy = errors.New("serve: executor saturated, retry later")
)

// Executor runs accepted jobs on a fixed pool of slots fed by a bounded
// queue. Admission control is Submit's job: a full queue is an ErrBusy,
// never an unbounded backlog. One slot executes one run at a time on
// the executor's sim.Runner, which keeps simulation workers between
// jobs: a daemon serving shard after shard builds its fan-outs and
// program generators once, holding at most slots × job parallelism of
// them. A panic anywhere in the job path — including the injected
// executor faults the tests arm — is contained to that run.
type Executor struct {
	runner   sim.Runner
	queue    chan *Run
	quit     chan struct{}
	drainOne sync.Once
	wg       sync.WaitGroup
	base     context.Context
	baseStop context.CancelCauseFunc
	draining atomic.Bool
	running  atomic.Int64 // jobs currently occupying a slot
	faults   *faultinject.Injector
	now      func() time.Time
}

// NewExecutor starts slots workers over a queue of depth queueDepth.
// faults arms the daemon-path injection site (nil = none); now is the
// daemon's clock.
func NewExecutor(slots, queueDepth int, faults *faultinject.Injector, now func() time.Time) *Executor {
	if slots < 1 {
		slots = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	base, stop := context.WithCancelCause(context.Background())
	x := &Executor{
		queue:    make(chan *Run, queueDepth),
		quit:     make(chan struct{}),
		base:     base,
		baseStop: stop,
		faults:   faults,
		now:      now,
	}
	for i := 0; i < slots; i++ {
		x.wg.Add(1)
		go x.worker()
	}
	return x
}

// Base is the context every run's context descends from; cancelling it
// (via Drain's deadline) aborts all in-flight work.
func (x *Executor) Base() context.Context { return x.base }

// Draining reports whether the executor has stopped accepting work.
func (x *Executor) Draining() bool { return x.draining.Load() }

// Backlog counts the jobs ahead of a new submission: everything queued
// plus everything occupying a slot right now.
func (x *Executor) Backlog() int { return len(x.queue) + int(x.running.Load()) }

// RetryAfter estimates, in whole seconds, when a refused submission is
// worth retrying: one second per job in the backlog, at least one. A
// draining executor reports the backlog it is still finishing — a
// backoff-honoring client should pace itself by it while rerouting to a
// worker that is not shutting down.
func (x *Executor) RetryAfter() int {
	if n := x.Backlog(); n > 1 {
		return n
	}
	return 1
}

// Submit enqueues a run. It never blocks: a full queue returns ErrBusy
// and a draining executor ErrDraining, both of which the caller
// translates to HTTP status codes.
func (x *Executor) Submit(r *Run) error {
	if x.draining.Load() {
		return ErrDraining
	}
	select {
	case x.queue <- r:
		return nil
	default:
		return ErrBusy
	}
}

// Drain stops intake, lets the workers finish the queued and running
// jobs while ctx lasts, then cancels whatever is left and waits for the
// slots to exit. Idempotent; later calls wait on the same shutdown.
func (x *Executor) Drain(ctx context.Context) {
	x.draining.Store(true)
	x.drainOne.Do(func() { close(x.quit) })
	done := make(chan struct{})
	go func() {
		x.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		x.baseStop(ErrDraining)
		<-done
	}
}

// worker is one executor slot: it consumes queued runs until drain,
// then drains the remaining queue and exits.
func (x *Executor) worker() {
	defer x.wg.Done()
	for {
		select {
		case r := <-x.queue:
			x.execute(r)
		case <-x.quit:
			for {
				select {
				case r := <-x.queue:
					x.execute(r)
				default:
					return
				}
			}
		}
	}
}

// execute runs one job start to finish, containing panics: a fault
// anywhere here fails the run, never the daemon.
func (x *Executor) execute(r *Run) {
	x.running.Add(1)
	defer x.running.Add(-1)
	defer func() {
		if p := recover(); p != nil {
			x.finish(r, nil, fmt.Errorf("serve: job panic: %v\n%s", p, debug.Stack()))
		}
	}()

	// A run cancelled while queued is finalized without starting.
	if err := r.ctx.Err(); err != nil {
		x.finish(r, nil, err)
		return
	}
	r.mu.Lock()
	r.state = StateRunning
	r.started = x.now()
	r.mu.Unlock()

	if x.faults != nil {
		if err := x.faults.Fire(r.ctx, faultinject.OpServeJob); err != nil {
			x.finish(r, nil, err)
			return
		}
	}
	opts := r.opts
	opts.Observer = obs.Multi(r.hub.Observe, r.observe)
	m, err := x.runner.RunContext(r.ctx, opts)
	x.finish(r, m, err)
}

// finish finalizes a run: classifies the outcome, renders the result
// document once, stamps the times, and closes the hub so subscribers
// see the end of the stream after the terminal state is readable.
func (x *Executor) finish(r *Run, m *sim.Measurements, err error) {
	state := StateDone
	detail := ""
	if err != nil {
		// A cancellation initiated through the run's context (DELETE or
		// drain deadline) is "cancelled"; everything else is "failed".
		cause := context.Cause(r.ctx)
		if r.ctx.Err() != nil && (errors.Is(cause, ErrCancelled) || errors.Is(cause, ErrDraining)) {
			state = StateCancelled
			detail = cause.Error()
		} else {
			state = StateFailed
			detail = err.Error()
		}
	}

	var result []byte
	var figures string
	if state == StateDone && m != nil {
		doc := ResultDocFor(r.id, m)
		blob, merr := json.MarshalIndent(doc, "", "\t")
		if merr != nil {
			state, detail = StateFailed, fmt.Sprintf("serve: encoding result: %v", merr)
		} else {
			result = blob
			figures = sim.Figures(m)
		}
	}

	r.mu.Lock()
	r.state = state
	r.errMsg = detail
	r.finished = x.now()
	if r.started.IsZero() {
		r.started = r.finished
	}
	r.result = result
	r.figures = figures
	r.mu.Unlock()
	r.cancel(nil) // release the context regardless of outcome
	r.hub.Close()
}

// ResultDocFor folds a completed run's measurements into the wire
// shape. Exported so the dist coordinator's in-process fallback folds
// local shard results through the exact function a worker would —
// keeping the merged document bit-identical whichever side simulated.
func ResultDocFor(id string, m *sim.Measurements) ResultDoc {
	doc := ResultDoc{
		ID:         id,
		Workloads:  make([]string, len(m.Specs)),
		Policies:   make([]string, len(m.Policies)),
		ICacheMPKI: map[string][]float64{},
		BTBMPKI:    map[string][]float64{},
		BranchMPKI: m.BranchMPKI,
	}
	for i, s := range m.Specs {
		doc.Workloads[i] = s.Name
	}
	for i, k := range m.Policies {
		doc.Policies[i] = k.String()
		doc.ICacheMPKI[k.String()] = m.ICacheMPKI[k]
		doc.BTBMPKI[k.String()] = m.BTBMPKI[k]
	}
	for _, raw := range m.Raw {
		if raw.Err != nil {
			doc.Failed = append(doc.Failed, RunErrorDoc{Workload: raw.Spec.Name, Error: raw.Err.Error()})
		}
	}
	if st := m.Stats; st != nil {
		doc.Stats = RunStatsDoc{
			WallMS:           float64(st.Wall) / float64(time.Millisecond),
			Records:          st.TotalRecords(),
			RecordsPerSec:    st.RecordsPerSec(),
			CacheHits:        st.CacheHits,
			CacheMisses:      st.CacheMisses,
			Retries:          st.Retries,
			CacheQuarantines: st.CacheQuarantines,
		}
	}
	return doc
}
