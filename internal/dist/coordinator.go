package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/serve"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

// WorkerSpec names one roster entry for New: a base URL (spawned
// subprocess or remote daemon — the coordinator treats both
// identically) plus an optional label and the backing process handle.
type WorkerSpec struct {
	// Name labels the worker in events and stats; empty derives "w<i>".
	Name string
	// URL is the worker's base URL, e.g. "http://127.0.0.1:8317".
	URL string
	// Proc is the spawned subprocess backing the worker, if any. The
	// coordinator does not manage its lifecycle.
	Proc *Proc
}

// Options configures a Coordinator. The suite fields are a
// serve.RunRequest's, and New normalizes them with serve.Normalize, so a
// distributed run is the same experiment as a single-process or
// single-daemon run.
type Options struct {
	// Workloads names suite workloads explicitly; empty selects a
	// SuiteN subsample (0 = full suite). Mutually exclusive with SuiteN.
	Workloads []string
	SuiteN    int
	// Suite generates the workload population on demand from a
	// parameter grid (see workload.SuiteGen) instead of naming fixed
	// suite members. Shard requests carry only the grid parameters and
	// an index window, so a 100k-workload run ships a few dozen bytes
	// per shard and no process ever materializes the whole program set.
	// Mutually exclusive with Workloads and SuiteN.
	Suite *workload.SuiteGen
	// Policies to evaluate; empty selects the paper's five.
	Policies []string
	// Scale multiplies instruction budgets; 0 means 1.0.
	Scale float64
	// ExecSeed seeds workload execution; 0 means seed 1.
	ExecSeed uint64
	// KeepGoing completes past failing cells, annotating them.
	KeepGoing bool
	// Config overrides the paper's default front-end configuration. It
	// travels inside each shard request; every ghrpd applies it to the
	// same default configuration.
	Config *serve.ConfigDoc
	// Parallelism is the per-shard scheduler parallelism hint sent to
	// workers and used by the in-process fallback; 0 = their defaults.
	Parallelism int
	// ProgressEvery is the tick interval forwarded to workers.
	ProgressEvery uint64

	// Workers is the roster. An empty roster runs everything in-process
	// (the deepest rung of the degradation ladder, available directly).
	Workers []WorkerSpec

	// ShardSize is how many whole workloads one shard carries; 0 picks
	// ceil(workloads / (2 * max(1, len(Workers)))) so every worker gets
	// a few shards and hedging has spares to play with.
	ShardSize int
	// HedgeAfter is how long a shard's only live attempt may go without
	// observed liveness before the shard is speculatively re-dispatched
	// to an idle worker; 0 = DefaultHedgeAfter, negative disables.
	HedgeAfter time.Duration
	// ProbeEvery paces the worker health prober; 0 = DefaultProbeEvery,
	// negative disables probing (quarantine becomes permanent).
	ProbeEvery time.Duration
	// QuarantineAfter is the consecutive-failure threshold that
	// quarantines a worker; 0 = DefaultQuarantineAfter.
	QuarantineAfter int
	// ShardAttempts is each shard's remote dispatch budget before it
	// falls back to in-process execution; 0 = DefaultShardAttempts.
	ShardAttempts int
	// DisableLocal forbids the in-process fallback: a shard exhausting
	// its attempts fails the run instead. Requires a non-empty roster.
	DisableLocal bool

	// Retry is the per-worker HTTP retry policy; zero fields pick the
	// package defaults, Seed defaults to ExecSeed.
	Retry RetryPolicy
	// Observer receives the coordinator's event stream (nil = none):
	// run/workload lifecycle with suite-global indices plus the shard
	// and worker kinds. Must be safe for concurrent use.
	Observer obs.Observer
	// Faults arms the transport injection sites of every worker client.
	// Test-only; see internal/faultinject.
	Faults *faultinject.Injector
}

// shard states; guarded by Coordinator.mu.
const (
	shardPending = iota
	shardInflight
	shardDone
)

// shard is one dispatch unit: a contiguous range of whole workloads.
type shard struct {
	idx    int
	lo, hi int // global workload index range [lo, hi)
	names  []string
	// job is the run's normalized job narrowed to [lo, hi): the worker
	// submission, its run key and the in-process scheduler options.
	job      serve.Job
	affinity uint64 // consistent-hash ring key: the run key's ring position

	// Guarded by Coordinator.mu.
	state    int
	attempts int        // dispatches so far (hedges included)
	live     []*attempt // attempts currently running
}

// attempt is one dispatch of a shard to a worker.
type attempt struct {
	shard  *shard
	worker *Worker
	n      int // dispatch number within the shard (1-based)
	hedge  bool
	ctx    context.Context
	cancel context.CancelCauseFunc
	runID  string // guarded by Coordinator.mu

	lastLive atomic.Int64 // unix nanos of the last observed liveness
}

func (a *attempt) touch() { a.lastLive.Store(now().UnixNano()) }

// errHedgeLost cancels the losing attempts of a hedged shard.
var errHedgeLost = errors.New("dist: hedge lost: another attempt completed first")

// Coordinator shards one suite run across a roster of ghrpd workers
// and merges the partial results; see the package comment for the
// failure-handling ladder. A Coordinator is single-use: New, then Run
// once.
type Coordinator struct {
	opts Options
	// job is the whole suite normalized by serve.Normalize, as a worker
	// would normalize it; every shard is a Window of it.
	job     serve.Job
	names   []string
	workers []*Worker
	ring    *ring   // nil with an empty roster
	merger  *merger // streaming shard-document fold

	hedgeAfter      time.Duration // 0 = disabled
	probeEvery      time.Duration // 0 = disabled
	quarantineAfter int
	shardAttempts   int

	runCtx context.Context
	bg     sync.WaitGroup // best-effort loser cancellations
	// local runs the in-process fallback lane's shards, keeping its sim
	// workers (fan-outs and program generators) from one shard to the
	// next instead of building them per shard.
	local sim.Runner

	mu        sync.Mutex
	shards    []*shard
	pending   []*shard
	localQ    []*shard
	remaining int
	failure   error
	doneC     chan struct{}
	kickC     chan struct{} // closed and replaced on every state change
	ran       bool

	statMu sync.Mutex
	stats  Stats
}

// New normalizes the suite with serve.Normalize, exactly as a worker
// daemon would, builds the shard plan and the worker roster, and
// returns a ready Coordinator.
func New(opts Options) (*Coordinator, error) {
	c := &Coordinator{opts: opts}

	req := serve.RunRequest{
		Workloads:     opts.Workloads,
		SuiteN:        opts.SuiteN,
		Policies:      opts.Policies,
		Scale:         opts.Scale,
		ExecSeed:      opts.ExecSeed,
		KeepGoing:     opts.KeepGoing,
		Config:        opts.Config,
		Parallelism:   opts.Parallelism,
		ProgressEvery: opts.ProgressEvery,
	}
	if opts.Suite != nil {
		req.Suite = &serve.SuiteGenDoc{SuiteGen: *opts.Suite}
	}
	job, err := serve.Normalize(req, serve.Defaults{})
	if err != nil {
		return nil, err
	}
	c.job = job
	// Names are the one per-workload slice the coordinator keeps: they
	// are the merged document's output axis (strings, not programs).
	if c.names = job.Request.Workloads; c.names == nil {
		src := job.Options.Source
		c.names = make([]string, src.Len())
		for i := range c.names {
			c.names[i] = src.At(i).Name
		}
	}
	if opts.DisableLocal && len(opts.Workers) == 0 {
		return nil, errors.New("dist: DisableLocal with an empty roster leaves no way to run anything")
	}

	c.hedgeAfter = opts.HedgeAfter
	if c.hedgeAfter == 0 {
		c.hedgeAfter = DefaultHedgeAfter
	}
	if c.hedgeAfter < 0 {
		c.hedgeAfter = 0
	}
	c.probeEvery = opts.ProbeEvery
	if c.probeEvery == 0 {
		c.probeEvery = DefaultProbeEvery
	}
	if c.probeEvery < 0 {
		c.probeEvery = 0
	}
	c.quarantineAfter = opts.QuarantineAfter
	if c.quarantineAfter <= 0 {
		c.quarantineAfter = DefaultQuarantineAfter
	}
	c.shardAttempts = opts.ShardAttempts
	if c.shardAttempts <= 0 {
		c.shardAttempts = DefaultShardAttempts
	}

	retry := opts.Retry
	if retry.Seed == 0 {
		retry.Seed = job.Request.ExecSeed
	}
	c.workers = make([]*Worker, len(opts.Workers))
	for i, ws := range opts.Workers {
		name := ws.Name
		if name == "" {
			name = fmt.Sprintf("w%d", i)
		}
		r := retry
		// Decorrelate backoff jitter across workers deterministically.
		r.Seed = sim.SplitMix64(retry.Seed ^ uint64(i+1))
		c.workers[i] = &Worker{
			Name:   name,
			Client: NewClient(ws.URL, r, opts.Faults, c.emit, name),
			Proc:   ws.Proc,
			index:  i,
		}
	}

	size := opts.ShardSize
	if size <= 0 {
		denom := 2 * len(c.workers)
		if denom < 1 {
			denom = 1
		}
		size = (len(c.names) + denom - 1) / denom
		if size < 1 {
			size = 1
		}
	}
	for lo := 0; lo < len(c.names); lo += size {
		hi := lo + size
		if hi > len(c.names) {
			hi = len(c.names)
		}
		sj, err := job.Window(lo, hi)
		if err != nil {
			return nil, err
		}
		s := &shard{idx: len(c.shards), lo: lo, hi: hi, names: c.names[lo:hi], job: sj, affinity: ringKey(sj.Key)}
		c.shards = append(c.shards, s)
		c.pending = append(c.pending, s)
	}

	if len(c.workers) > 0 {
		wnames := make([]string, len(c.workers))
		for i, w := range c.workers {
			wnames[i] = w.Name
		}
		c.ring = newRing(wnames)
	}

	c.merger = newMerger(c.names, job.Request.Policies, len(c.shards))
	c.remaining = len(c.shards)
	c.doneC = make(chan struct{})
	c.kickC = make(chan struct{})
	return c, nil
}

// Shards returns the shard count of the plan.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Stats snapshots the transport/roster counters accumulated so far.
func (c *Coordinator) Stats() Stats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.stats
}

// emit updates the stats counters and forwards the event to the
// configured observer. Never called while holding c.mu.
func (c *Coordinator) emit(e obs.Event) {
	c.statMu.Lock()
	switch e.Kind {
	case obs.ShardDispatch:
		c.stats.Dispatches++
	case obs.ShardFailed:
		c.stats.ShardFailures++
	case obs.ShardHedge:
		c.stats.Hedges++
	case obs.ShardLocal:
		c.stats.LocalShards++
	case obs.WorkerQuarantine:
		c.stats.Quarantines++
	case obs.WorkerReinstate:
		c.stats.Reinstates++
	case obs.DistRetry:
		c.stats.Retries++
	}
	c.statMu.Unlock()
	if c.opts.Observer != nil {
		c.opts.Observer(e)
	}
}

// kick wakes everything blocked on roster or queue state.
func (c *Coordinator) kick() {
	c.mu.Lock()
	c.kickLocked()
	c.mu.Unlock()
}

func (c *Coordinator) kickLocked() {
	close(c.kickC)
	c.kickC = make(chan struct{})
}

// Run executes the plan: dispatch loops per worker, the health prober,
// the hedge scanner and the in-process fallback lane all run until
// every shard is resolved, then the partial results merge. The merged
// document is bit-identical to a single-process run of the same suite
// (Reference) whatever failed along the way — or Run reports why it
// could not get there.
func (c *Coordinator) Run(ctx context.Context) (*Merged, error) {
	c.mu.Lock()
	if c.ran {
		c.mu.Unlock()
		return nil, errors.New("dist: coordinator is single-use")
	}
	c.ran = true
	remaining := c.remaining
	c.mu.Unlock()

	start := now()
	c.emit(obs.Event{Kind: obs.RunStart, Workloads: len(c.names), Policies: len(c.job.Request.Policies), Shards: len(c.shards)})
	if remaining == 0 {
		return c.finish(start)
	}

	rctx, rcancel := context.WithCancelCause(ctx)
	defer rcancel(nil)
	c.runCtx = rctx

	var wg sync.WaitGroup
	if len(c.workers) > 0 {
		if c.probeEvery > 0 {
			wg.Add(1)
			go func() { defer wg.Done(); c.probe(rctx) }()
		}
		if c.hedgeAfter > 0 {
			wg.Add(1)
			go func() { defer wg.Done(); c.hedgeScan(rctx) }()
		}
		for _, w := range c.workers {
			wg.Add(1)
			go func(w *Worker) { defer wg.Done(); c.workerLoop(rctx, w) }(w)
		}
	}
	if !c.opts.DisableLocal {
		wg.Add(1)
		go func() { defer wg.Done(); c.localLoop(rctx) }()
	}

	select {
	case <-c.doneC:
	case <-ctx.Done():
	}
	rcancel(context.Cause(ctx))
	c.kick() // unblock loops parked on kickC
	wg.Wait()
	c.bg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	c.mu.Lock()
	failure := c.failure
	c.mu.Unlock()
	if failure != nil {
		return nil, failure
	}
	return c.finish(start)
}

// finish finalizes the streaming merge and stamps the run-level stats.
// By the time it runs, every shard document has already been folded
// (and released) at completion; no per-shard state is re-read here.
func (c *Coordinator) finish(start time.Time) (*Merged, error) {
	m, cacheHits, err := c.merger.result()
	if err != nil {
		return nil, err
	}
	wall := now().Sub(start)
	c.statMu.Lock()
	c.stats.Workers = len(c.workers)
	c.stats.Shards = len(c.shards)
	c.stats.WorkerCacheHits = cacheHits
	c.stats.WallMS = float64(wall) / float64(time.Millisecond)
	m.Stats = c.stats
	c.statMu.Unlock()
	c.emit(obs.Event{Kind: obs.RunDone, Workloads: len(c.names), Elapsed: wall})
	return m, nil
}

// workerLoop is one worker's dispatch loop: claim work, run it end to
// end, account the outcome, repeat until nothing remains.
func (c *Coordinator) workerLoop(rctx context.Context, w *Worker) {
	for {
		att := c.next(rctx, w)
		if att == nil {
			return
		}
		doc, err := c.dispatch(att)
		att.cancel(nil) // the attempt is over either way; release its context
		if err == nil {
			w.ok()
			c.completeShard(att.shard, att, doc)
			continue
		}
		if errors.Is(context.Cause(att.ctx), errHedgeLost) {
			// Losing a hedge race says nothing about this worker's
			// health; just detach from the shard.
			c.release(att, err, false)
			continue
		}
		quarantined, fails := w.fail(c.quarantineAfter)
		c.release(att, err, true)
		if quarantined {
			c.emit(obs.Event{Kind: obs.WorkerQuarantine, Worker: w.Name, Attempt: fails})
			c.kick() // the local lane re-evaluates "any usable worker"
		}
	}
}

// next blocks until w can take an attempt: a pending shard
// (preferring the ones the affinity ring assigns to w), or — with
// nothing claimable — a straggling shard worth hedging. It returns nil
// when the run is over or rctx ends.
func (c *Coordinator) next(rctx context.Context, w *Worker) *attempt {
	for {
		c.mu.Lock()
		if c.remaining == 0 || rctx.Err() != nil {
			c.mu.Unlock()
			return nil
		}
		if w.usable() {
			if s, affine := c.claimPendingLocked(w); s != nil {
				att := c.newAttemptLocked(s, w, false)
				c.mu.Unlock()
				c.statMu.Lock()
				if affine {
					c.stats.AffinityHits++
				} else {
					c.stats.AffinityMisses++
				}
				c.statMu.Unlock()
				c.emit(obs.Event{Kind: obs.ShardDispatch, Shard: s.idx, Shards: len(c.shards), Worker: w.Name, Attempt: att.n, Affinity: affine})
				return att
			}
			if c.hedgeAfter > 0 {
				if s := c.hedgeCandidateLocked(w); s != nil {
					att := c.newAttemptLocked(s, w, true)
					c.mu.Unlock()
					c.emit(obs.Event{Kind: obs.ShardHedge, Shard: s.idx, Shards: len(c.shards), Worker: w.Name, Attempt: att.n})
					c.emit(obs.Event{Kind: obs.ShardDispatch, Shard: s.idx, Shards: len(c.shards), Worker: w.Name, Attempt: att.n})
					return att
				}
			}
		}
		ch := c.kickC
		c.mu.Unlock()
		select {
		case <-rctx.Done():
			return nil
		case <-ch:
		}
	}
}

// claimWalkPerWorker bounds claimPendingLocked's walk to this many owner
// lookups per roster worker. A balanced ring finds w's next shard in
// about len(workers) lookups and misses the bound on about e^-8 of
// claims; a worker whose usable peer is not claiming (stalled, or a
// pile left behind by a failure) stops rescanning the whole backlog.
const claimWalkPerWorker = 8

// claimPendingLocked removes and returns the pending shard w should
// run: the lowest-indexed shard the affinity ring assigns to w among
// the first claimWalkPerWorker*len(workers) pending, else — so affinity
// never idles a worker — the lowest-indexed shard outright (a steal).
// nil means nothing is pending. affine reports whether the claim
// honored ring placement.
func (c *Coordinator) claimPendingLocked(w *Worker) (s *shard, affine bool) {
	if len(c.pending) == 0 {
		return nil, false
	}
	walk := c.pending[:min(len(c.pending), claimWalkPerWorker*len(c.workers))]
	for i, p := range walk {
		if c.ring.owner(p.affinity, c.usableWorker) == w.index {
			return c.takePendingLocked(i), true
		}
	}
	return c.takePendingLocked(0), false
}

// takePendingLocked removes pending[i], keeping the rest in order. The
// claimed shard sits near the front, so the entries before it shift up
// one slot rather than the tail down.
func (c *Coordinator) takePendingLocked(i int) *shard {
	s := c.pending[i]
	copy(c.pending[1:i+1], c.pending[:i])
	c.pending = c.pending[1:]
	return s
}

// requeueLocked puts a released shard back into pending at its index
// position.
func (c *Coordinator) requeueLocked(s *shard) {
	i := sort.Search(len(c.pending), func(i int) bool { return c.pending[i].idx > s.idx })
	c.pending = slices.Insert(c.pending, i, s)
}

// usableWorker adapts the roster to the affinity ring's health lookup.
func (c *Coordinator) usableWorker(i int) bool { return c.workers[i].usable() }

// hedgeCandidateLocked picks the stalest in-flight shard whose single
// live attempt runs on a different worker and has shown no liveness
// for HedgeAfter. Only one hedge per shard runs at a time.
func (c *Coordinator) hedgeCandidateLocked(w *Worker) *shard {
	cutoff := now().Add(-c.hedgeAfter).UnixNano()
	var best *shard
	var bestLive int64
	for _, s := range c.shards {
		if s.state != shardInflight || len(s.live) != 1 {
			continue
		}
		a := s.live[0]
		if a.worker == w {
			continue
		}
		if live := a.lastLive.Load(); live <= cutoff && (best == nil || live < bestLive) {
			best, bestLive = s, live
		}
	}
	return best
}

// newAttemptLocked registers a new dispatch of s on w.
func (c *Coordinator) newAttemptLocked(s *shard, w *Worker, hedge bool) *attempt {
	s.state = shardInflight
	s.attempts++
	att := &attempt{shard: s, worker: w, n: s.attempts, hedge: hedge}
	att.ctx, att.cancel = context.WithCancelCause(c.runCtx)
	att.touch()
	s.live = append(s.live, att)
	return att
}

// dispatch runs one attempt end to end: submit the shard, tail its
// event stream (forwarding progress), fetch the result.
func (c *Coordinator) dispatch(att *attempt) (*serve.ResultDoc, error) {
	ctx, s, w := att.ctx, att.shard, att.worker
	sub, err := w.Client.Submit(ctx, s.job.Request)
	if err != nil {
		return nil, err
	}
	id := sub.Status.ID
	c.mu.Lock()
	att.runID = id
	c.mu.Unlock()
	att.touch()
	if c.opts.Faults != nil {
		// A Stall rule here is an unresponsive worker: the submission
		// was accepted but the dispatch hangs until the hedge winner
		// (or the run) cancels it — whereupon the loser's accepted run
		// is cancelled remotely via DELETE.
		if err := c.opts.Faults.Fire(ctx, faultinject.OpDistSlow); err != nil {
			return nil, err
		}
	}

	// Tail even when the submission already reports a terminal state:
	// the daemon replays a finished run's whole log, so a shard that
	// finished before its submission returned still forwards its ticks.
	final, err := w.Client.Tail(ctx, id, func(e serve.EventDoc) {
		att.touch()
		c.forward(s, w, e)
	})
	if err != nil {
		return nil, err
	}
	switch final.State {
	case "done":
		doc, err := w.Client.Result(ctx, id)
		if err != nil {
			return nil, err
		}
		return &doc, nil
	default:
		return nil, fmt.Errorf("dist: worker %s finished shard %d as %q: %s", w.Name, s.idx, final.State, final.Error)
	}
}

// forward re-emits one worker event with suite-global indices. Only
// ticks flow through: workload lifecycle is emitted exactly once at
// shard completion (hedged shards would double-report), and ticks are
// overwrite-semantics progress that duplicates cannot skew.
func (c *Coordinator) forward(s *shard, w *Worker, e serve.EventDoc) {
	if e.Kind != "tick" {
		return
	}
	c.emit(obs.Event{
		Kind:          obs.Tick,
		Workload:      e.Workload,
		WorkloadIndex: s.lo + e.WorkloadIndex,
		Workloads:     len(c.names),
		Policy:        e.Policy,
		PolicyIndex:   e.PolicyIndex,
		Policies:      len(c.job.Request.Policies),
		Records:       e.Records,
		Instructions:  e.Instructions,
		Elapsed:       time.Duration(e.ElapsedMS * float64(time.Millisecond)),
		Shard:         s.idx,
		Shards:        len(c.shards),
		Worker:        w.Name,
	})
}

// completeShard records a shard's first completed result, cancels any
// losing attempts (best-effort DELETE on their workers), and emits the
// shard's workload lifecycle exactly once. att is nil for the local
// lane.
func (c *Coordinator) completeShard(s *shard, att *attempt, doc *serve.ResultDoc) {
	worker := "local"
	attemptN := 0
	if att != nil {
		worker, attemptN = att.worker.Name, att.n
	}
	type loser struct {
		client *Client
		runID  string
	}
	var losers []loser

	c.mu.Lock()
	if s.state == shardDone {
		// Lost a hedge race after completing anyway; the winner already
		// merged. Nothing to record.
		c.mu.Unlock()
		return
	}
	s.state = shardDone
	for _, l := range s.live {
		if l == att {
			continue
		}
		l.cancel(errHedgeLost)
		if l.runID != "" {
			losers = append(losers, loser{client: l.worker.Client, runID: l.runID})
		}
	}
	s.live = nil
	c.mu.Unlock()

	// Fold the document before announcing completion: once remaining
	// hits zero, finish() reads the merger. The shardDone flip above
	// makes this the document's only fold; the document is released
	// here, not retained until the run ends.
	if err := c.merger.complete(s, doc); err != nil {
		c.mu.Lock()
		c.failure = errors.Join(c.failure, err)
		c.mu.Unlock()
	}

	c.mu.Lock()
	c.remaining--
	last := c.remaining == 0
	c.kickLocked()
	c.mu.Unlock()

	for _, l := range losers {
		c.bg.Add(1)
		go func(cl *Client, id string) {
			defer c.bg.Done()
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			cl.Cancel(cctx, id) // best effort: the worker may be gone
		}(l.client, l.runID)
	}

	c.emit(obs.Event{Kind: obs.ShardDone, Shard: s.idx, Shards: len(c.shards), Worker: worker, Attempt: attemptN})
	failed := map[string]string{}
	for _, f := range doc.Failed {
		failed[f.Workload] = f.Error
	}
	for i, name := range s.names {
		e := obs.Event{
			Workload:      name,
			WorkloadIndex: s.lo + i,
			Workloads:     len(c.names),
			Policies:      len(c.job.Request.Policies),
			Shard:         s.idx,
			Shards:        len(c.shards),
			Worker:        worker,
		}
		if msg, ok := failed[name]; ok {
			e.Kind, e.Err = obs.WorkloadFailed, errors.New(msg)
		} else {
			e.Kind = obs.WorkloadDone
		}
		c.emit(e)
	}
	if last {
		close(c.doneC)
	}
}

// release detaches a failed attempt from its shard and decides the
// shard's next move: wait for a live hedge twin, requeue for another
// worker, fall back to the local lane, or — with the fallback disabled
// — fail the run.
func (c *Coordinator) release(att *attempt, cause error, emitFail bool) {
	s := att.shard
	c.mu.Lock()
	for i, l := range s.live {
		if l == att {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	if s.state == shardDone {
		c.mu.Unlock()
		return
	}
	disposed := ""
	if len(s.live) == 0 {
		s.state = shardPending
		switch {
		// With the local fallback disabled a quarantined-out roster is
		// worth waiting on (the prober may reinstate someone), so only
		// an exhausted attempt budget fails the run.
		case s.attempts < c.shardAttempts && (c.anyUsableLocked() || c.opts.DisableLocal):
			c.requeueLocked(s)
		case c.opts.DisableLocal:
			disposed = "failed"
		default:
			c.localQ = append(c.localQ, s)
		}
		c.kickLocked()
	}
	c.mu.Unlock()

	if emitFail {
		c.emit(obs.Event{Kind: obs.ShardFailed, Shard: s.idx, Shards: len(c.shards), Worker: att.worker.Name, Attempt: att.n, Err: cause})
	}
	if disposed == "failed" {
		c.failShard(s, fmt.Errorf("dist: shard %d exhausted %d attempts with the local fallback disabled: %w", s.idx, s.attempts, cause))
	}
}

// anyUsableLocked reports whether any roster worker may take shards.
func (c *Coordinator) anyUsableLocked() bool {
	for _, w := range c.workers {
		if w.usable() {
			return true
		}
	}
	return false
}

// failShard resolves a shard as permanently failed: the run fails, but
// the remaining shards still drain so Run returns with every lane
// joined.
func (c *Coordinator) failShard(s *shard, err error) {
	c.mu.Lock()
	if s.state == shardDone {
		c.mu.Unlock()
		return
	}
	s.state = shardDone
	c.failure = errors.Join(c.failure, err)
	c.mu.Unlock()

	c.merger.fail(s.idx)

	c.mu.Lock()
	c.remaining--
	last := c.remaining == 0
	c.kickLocked()
	c.mu.Unlock()
	c.emit(obs.Event{Kind: obs.ShardFailed, Shard: s.idx, Shards: len(c.shards), Worker: "local", Err: err})
	if last {
		close(c.doneC)
	}
}

// localLoop is the in-process fallback lane: it claims shards that
// exhausted their remote attempts — or any pending shard once no
// worker is usable — and runs them on the coordinator's own scheduler.
func (c *Coordinator) localLoop(rctx context.Context) {
	for {
		s := c.nextLocal(rctx)
		if s == nil {
			return
		}
		c.emit(obs.Event{Kind: obs.ShardLocal, Shard: s.idx, Shards: len(c.shards), Worker: "local", Attempt: s.attempts})
		doc, err := c.simShard(rctx, &c.local, s, true)
		if err != nil {
			if rctx.Err() != nil {
				return
			}
			c.failShard(s, fmt.Errorf("dist: shard %d failed in-process: %w", s.idx, err))
			continue
		}
		c.completeShard(s, nil, doc)
	}
}

// nextLocal blocks until a shard needs the local lane: one queued for
// it explicitly, or — with every worker quarantined — anything still
// pending.
func (c *Coordinator) nextLocal(rctx context.Context) *shard {
	for {
		c.mu.Lock()
		if c.remaining == 0 || rctx.Err() != nil {
			c.mu.Unlock()
			return nil
		}
		var s *shard
		if len(c.localQ) > 0 {
			s = c.localQ[0]
			c.localQ = c.localQ[1:]
		} else if !c.anyUsableLocked() && len(c.pending) > 0 {
			s = c.takePendingLocked(0)
		}
		if s != nil {
			s.state = shardInflight
			c.mu.Unlock()
			return s
		}
		ch := c.kickC
		c.mu.Unlock()
		select {
		case <-rctx.Done():
			return nil
		case <-ch:
		}
	}
}

// simShard runs one shard on rn, the in-process scheduler, with the
// options a worker would run its shard request with, and folds the
// measurements through the exact wire-shape function a worker would
// use, so the merged document cannot tell local from remote.
func (c *Coordinator) simShard(ctx context.Context, rn *sim.Runner, s *shard, observe bool) (*serve.ResultDoc, error) {
	opts := s.job.Options
	if observe {
		opts.Observer = func(e obs.Event) {
			if e.Kind != obs.Tick {
				return
			}
			e.WorkloadIndex += s.lo
			e.Workloads = len(c.names)
			e.Policies = len(c.job.Request.Policies)
			e.Shard, e.Shards, e.Worker = s.idx, len(c.shards), "local"
			c.emit(e)
		}
	}
	m, err := rn.RunContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	doc := serve.ResultDocFor(fmt.Sprintf("local-shard-%d", s.idx), m)
	return &doc, nil
}

// probe is the roster health loop: a live, non-draining /healthz
// answer reinstates a quarantined worker on probation; failures and
// draining answers count toward quarantine.
func (c *Coordinator) probe(rctx context.Context) {
	ch, stop := tick(c.probeEvery)
	defer stop()
	for {
		select {
		case <-rctx.Done():
			return
		case <-ch:
		}
		timeout := c.probeEvery
		if timeout < probeTimeoutFloor {
			timeout = probeTimeoutFloor
		}
		for _, w := range c.workers {
			pctx, cancel := context.WithTimeout(rctx, timeout)
			doc, err := w.Client.Health(pctx)
			cancel()
			if rctx.Err() != nil {
				// Cut short by the run's end: no verdict on the worker.
				return
			}
			if err == nil && !doc.Draining {
				if w.reinstate() {
					c.emit(obs.Event{Kind: obs.WorkerReinstate, Worker: w.Name})
					c.kick()
				}
				continue
			}
			cause := err
			if cause == nil {
				cause = errors.New("worker is draining")
			}
			if quarantined, fails := w.fail(c.quarantineAfter); quarantined {
				c.emit(obs.Event{Kind: obs.WorkerQuarantine, Worker: w.Name, Attempt: fails, Err: cause})
				c.kick()
			}
		}
	}
}

// hedgeScan periodically wakes idle workers so they re-evaluate hedge
// eligibility; the decision itself lives in next.
func (c *Coordinator) hedgeScan(rctx context.Context) {
	period := c.hedgeAfter / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	ch, stop := tick(period)
	defer stop()
	for {
		select {
		case <-rctx.Done():
			return
		case <-ch:
			c.kick()
		}
	}
}

// Reference runs the identical suite as one single-process execution
// and folds it through the same streaming merger as a distributed run —
// the oracle the fault tests (and -verify) compare a distributed run
// against, byte for byte.
func (c *Coordinator) Reference(ctx context.Context) (*Merged, error) {
	full := &shard{idx: 0, lo: 0, hi: len(c.names), names: c.names, job: c.job}
	// A one-shot Runner, as sim.RunContext uses: the oracle shares no
	// workers with the run it checks.
	doc, err := c.simShard(ctx, new(sim.Runner), full, false)
	if err != nil {
		return nil, err
	}
	m := newMerger(c.names, c.job.Request.Policies, 1)
	if err := m.complete(full, doc); err != nil {
		return nil, err
	}
	out, _, err := m.result()
	return out, err
}
