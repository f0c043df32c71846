package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/resultcache"
)

// Defaults carries the server-side knobs a submission is normalized
// against. None of them changes a run's results: every daemon applies a
// request's config overrides to the paper's default configuration.
type Defaults struct {
	// JobParallelism is the per-job scheduler parallelism when the
	// request does not set one.
	JobParallelism int
	// MaxCells rejects requests whose (workload x policy) grid exceeds
	// it; 0 = unlimited.
	MaxCells int
	// Cache is the shared on-disk result cache (nil = none): the
	// substrate that lets distinct-but-overlapping submissions reuse
	// each other's cells.
	Cache *resultcache.Cache
	// TaskTimeout / StallTimeout bound each job's workload tasks; see
	// sim.Options.
	TaskTimeout  time.Duration
	StallTimeout time.Duration
}

// Config configures a Server.
type Config struct {
	// Slots is the number of concurrent job executions (default 1).
	Slots int
	// QueueDepth bounds jobs accepted beyond the busy slots; a full
	// queue answers 429 (default 0: no queue, slots only).
	QueueDepth int
	// MaxRuns bounds retained runs (oldest terminal evicted first);
	// 0 = unbounded.
	MaxRuns int
	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration
	// Defaults are the normalization knobs.
	Defaults Defaults
	// Faults arms the daemon-path injection site. Test-only.
	Faults *faultinject.Injector
	// Now is the daemon's clock; nil means the wall clock. Tests inject
	// a fixed clock for deterministic status documents.
	Now func() time.Time
}

// Server is the ghrpd HTTP surface: the run store, the executor, and
// the handlers that tie them to the endpoints documented in
// docs/API.md.
type Server struct {
	store  *Store
	exec   *Executor
	dflt   Defaults
	mux    *http.ServeMux
	now    func() time.Time
	beat   time.Duration
	faults *faultinject.Injector
}

// New assembles a Server and starts its executor slots.
func New(cfg Config) *Server {
	now := cfg.Now
	if now == nil {
		now = time.Now //ghrplint:ignore detwallclock run timestamps and SSE pacing are wall-clock by definition; simulation results never read this clock
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.Defaults.JobParallelism <= 0 {
		cfg.Defaults.JobParallelism = 1
	}
	s := &Server{
		store:  NewStore(cfg.MaxRuns),
		exec:   NewExecutor(cfg.Slots, cfg.QueueDepth, cfg.Faults, now),
		dflt:   cfg.Defaults,
		now:    now,
		beat:   cfg.Heartbeat,
		faults: cfg.Faults,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /runs/{id}/figures", s.handleFigures)
	mux.HandleFunc("DELETE /runs/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the run endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store exposes the run store (tests and the smoke harness).
func (s *Server) Store() *Store { return s.store }

// Drain gracefully shuts the serving layer down: intake stops (new
// submissions get 503), queued and running jobs finish while ctx lasts,
// then the rest are cancelled. The HTTP listener's own Shutdown should
// follow this call, by which point every SSE stream has ended.
func (s *Server) Drain(ctx context.Context) { s.exec.Drain(ctx) }

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(v) // a write error means the client left; nothing to do
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, msg, state string) {
	writeJSON(w, status, ErrorDoc{Error: msg, State: state})
}

// handleSubmit is POST /runs: normalize, dedup through the store, and
// schedule newly created runs. Identical submissions (same content
// hash) join the existing run whatever its phase; a previously failed
// or cancelled identity is re-attempted fresh.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.exec.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(s.exec.RetryAfter()))
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error(), "")
		return
	}
	var j Job
	req, err := decodeRunRequest(r.Body)
	if err == nil {
		j, err = Normalize(req, s.dflt)
	}
	if err == nil {
		// The armed injector reaches into each job's scheduler too, so
		// tests can fault exact simulation sites through the HTTP path.
		j.Options.Faults = s.faults
	}
	if err != nil {
		status := http.StatusInternalServerError
		if IsBadRequest(err) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err.Error(), "")
		return
	}
	run, created := s.store.GetOrCreate(s.exec.Base(), j, s.now())
	if created {
		if err := s.exec.Submit(run); err != nil {
			// Admission refused: forget the stillborn run so a retry
			// starts clean.
			s.store.Delete(run.ID())
			// Retry-After is derived from the executor's actual backlog
			// and drain state, so backoff-honoring clients (the dist
			// coordinator included) pace themselves usefully instead of
			// hammering a saturated worker every second.
			w.Header().Set("Retry-After", strconv.Itoa(s.exec.RetryAfter()))
			switch {
			case errors.Is(err, ErrBusy):
				writeError(w, http.StatusTooManyRequests, err.Error(), "")
			default:
				writeError(w, http.StatusServiceUnavailable, err.Error(), "")
			}
			return
		}
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, SubmitResponse{Created: created, Status: run.status()})
}

// decodeRunRequest reads a POST /runs body: at most 1 MiB of JSON with
// no fields RunRequest does not define. A failure is a bad request.
func decodeRunRequest(body io.Reader) (RunRequest, error) {
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return RunRequest{}, badRequestf("serve: decoding request: %w", err)
	}
	return req, nil
}

// handleList is GET /runs: every retained run's status, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.store.List()
	docs := make([]StatusDoc, len(runs))
	for i, run := range runs {
		docs[i] = run.status()
	}
	writeJSON(w, http.StatusOK, docs)
}

// run resolves the {id} path value, answering 404 itself.
func (s *Server) run(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "serve: no such run", "")
		return nil, false
	}
	return run, true
}

// handleStatus is GET /runs/{id}. Failed and cancelled runs are still
// 200 here — the job's failure is data, not a transport error.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if run, ok := s.run(w, r); ok {
		writeJSON(w, http.StatusOK, run.status())
	}
}

// handleResult is GET /runs/{id}/result: the run's marshaled-once
// result document. Unfinished, failed and cancelled runs answer 409
// with the state, so pollers can distinguish "wait" from "gone wrong".
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	run.mu.Lock()
	state, result := run.state, run.result
	run.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "serve: run has no result", string(state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

// handleFigures is GET /runs/{id}/figures: the sim.Figures text bundle
// for a completed run.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	run.mu.Lock()
	state, figures := run.state, run.figures
	run.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "serve: run has no figures", string(state))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, figures)
}

// handleDelete is DELETE /runs/{id}: cancel a live run (202; the state
// flips to cancelled when the executor observes it), or forget a
// terminal one (200). Cancelling affects every deduplicated subscriber
// of the run — content addressing makes the run shared property.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	if run.State().Terminal() {
		s.store.Delete(run.ID())
		writeJSON(w, http.StatusOK, run.status())
		return
	}
	run.Cancel(ErrCancelled)
	writeJSON(w, http.StatusAccepted, run.status())
}

// handleHealth is GET /healthz: liveness and readiness in one probe. A
// healthy daemon answers 200 "ok"; once a drain has begun it answers
// 503 with status "draining" and Draining set, so load balancers and
// the dist coordinator stop routing new work to it — while the
// well-formed body (versus a refused connection) still distinguishes
// "alive but shutting down" from "dead".
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc := HealthDoc{
		Status:   "ok",
		Runs:     s.store.Len(),
		Draining: s.exec.Draining(),
	}
	code := http.StatusOK
	if doc.Draining {
		doc.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, doc)
}
