package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/sim"
)

// State is a run's lifecycle position. Transitions are strictly
// queued → running → {done, failed, cancelled}; a queued run cancelled
// before a slot picks it up goes straight to cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Run is one accepted job: the normalized submission, its replayable
// event hub, and the mutable lifecycle the store and executor advance.
type Run struct {
	id     string
	key    resultcache.Key
	req    RunRequest
	opts   sim.Options
	hub    *obs.Hub
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	submits  int
	// result and figures are filled exactly once, when the run
	// completes; result is the marshaled ResultDoc, so every subscriber
	// downloads bit-identical bytes.
	result  []byte
	figures string

	// Progress counters folded from the event stream by the run's own
	// observer (concurrent with readers, hence atomics).
	pTotal, pDone, pFailed   atomic.Int64
	pHits, pMisses, pRetries atomic.Int64
	pRecords                 atomic.Uint64
}

// ID returns the run's content-addressed identifier.
func (r *Run) ID() string { return r.id }

// Hub returns the run's event hub.
func (r *Run) Hub() *obs.Hub { return r.hub }

// State returns the run's current state.
func (r *Run) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Cancel requests cancellation with the given cause. The state flips to
// cancelled when the executor observes it (immediately for queued runs
// it dequeues, promptly for running ones).
func (r *Run) Cancel(cause error) { r.cancel(cause) }

// observe folds progress counters out of the event stream; it runs
// concurrently with status readers.
func (r *Run) observe(e obs.Event) {
	switch e.Kind {
	case obs.RunStart:
		r.pTotal.Store(int64(e.Workloads))
	case obs.WorkloadDone:
		r.pDone.Add(1)
	case obs.WorkloadFailed:
		r.pDone.Add(1)
		r.pFailed.Add(1)
	case obs.PolicyCached:
		r.pHits.Add(1)
	case obs.PolicyDone:
		if e.CacheMiss {
			r.pMisses.Add(1)
		}
		r.pRecords.Add(e.Records)
	case obs.TaskRetry:
		r.pRetries.Add(1)
	}
}

// status snapshots the run as a StatusDoc.
func (r *Run) status() StatusDoc {
	r.mu.Lock()
	doc := StatusDoc{
		ID:        r.id,
		State:     string(r.state),
		Request:   r.req,
		CreatedAt: r.created,
		Error:     r.errMsg,
		Submits:   r.submits,
	}
	if !r.started.IsZero() {
		t := r.started
		doc.StartedAt = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		doc.FinishedAt = &t
	}
	r.mu.Unlock()
	doc.Subscribers = r.hub.Subscribers()
	doc.Events = r.hub.Len()
	doc.Progress = ProgressDoc{
		Workloads:       int(r.pTotal.Load()),
		WorkloadsDone:   int(r.pDone.Load()),
		WorkloadsFailed: int(r.pFailed.Load()),
		Records:         r.pRecords.Load(),
		CacheHits:       int(r.pHits.Load()),
		CacheMisses:     int(r.pMisses.Load()),
		Retries:         int(r.pRetries.Load()),
	}
	return doc
}

// Store is the concurrent run store: runs keyed by the content hash of
// their normalized submission, so identical submissions share one Run.
type Store struct {
	mu   sync.Mutex
	runs map[string]*Run
	// maxRuns bounds retained runs; when exceeded, the oldest terminal
	// runs are evicted at submission time. 0 means unbounded.
	maxRuns int
}

// NewStore returns an empty store retaining at most maxRuns runs
// (0 = unbounded).
func NewStore(maxRuns int) *Store {
	return &Store{runs: map[string]*Run{}, maxRuns: maxRuns}
}

// GetOrCreate returns the run for the job's identity, creating it if
// absent. An existing run that failed or was cancelled is replaced by a
// fresh attempt (its event log stays with the old Run, which the store
// forgets); a queued, running or completed run is joined — that is the
// dedup path. created reports whether the caller must schedule the run.
func (s *Store) GetOrCreate(parent context.Context, j Job, now time.Time) (run *Run, created bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := string(j.Key)
	if r, ok := s.runs[id]; ok {
		r.mu.Lock()
		state := r.state
		if state != StateFailed && state != StateCancelled {
			r.submits++
			r.mu.Unlock()
			return r, false
		}
		r.mu.Unlock()
		// fall through: replace the failed/cancelled attempt
	}
	ctx, cancel := context.WithCancelCause(parent)
	r := &Run{
		id:      id,
		key:     j.Key,
		req:     j.Request,
		opts:    j.Options,
		hub:     obs.NewHub(),
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: now,
		submits: 1,
	}
	s.runs[id] = r
	s.evictLocked()
	return r, true
}

// Get returns the run with the given id.
func (s *Store) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Delete forgets the run with the given id (it does not cancel it).
func (s *Store) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.runs, id)
}

// List returns all runs ordered by creation time, then id — a stable
// order for the listing endpoint.
func (s *Store) List() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].created, out[j].created
		if !ci.Equal(cj) {
			return ci.Before(cj)
		}
		return out[i].id < out[j].id
	})
	return out
}

// Len returns how many runs the store retains.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// evictLocked drops the oldest terminal runs beyond maxRuns. Live
// (queued/running) runs are never evicted, so the store can transiently
// exceed the bound when everything retained is still in flight.
func (s *Store) evictLocked() {
	if s.maxRuns <= 0 || len(s.runs) <= s.maxRuns {
		return
	}
	type cand struct {
		id      string
		created time.Time
	}
	var terminal []cand
	//ghrplint:commutative collects candidates into a slice that is sorted before any eviction; visit order cannot affect which runs are dropped
	for id, r := range s.runs {
		r.mu.Lock()
		if r.state.Terminal() {
			terminal = append(terminal, cand{id, r.created})
		}
		r.mu.Unlock()
	}
	sort.Slice(terminal, func(i, j int) bool {
		if !terminal[i].created.Equal(terminal[j].created) {
			return terminal[i].created.Before(terminal[j].created)
		}
		return terminal[i].id < terminal[j].id
	})
	for _, c := range terminal {
		if len(s.runs) <= s.maxRuns {
			return
		}
		delete(s.runs, c.id)
	}
}
