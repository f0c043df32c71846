// Package serve is the simulation-as-a-service layer: an HTTP daemon
// (cmd/ghrpd) that accepts suite runs as jobs, executes them on the
// internal/sim scheduler, streams internal/obs events as Server-Sent
// Events, and serves results and figures from a concurrent run store.
//
// The package splits along RunStore/Executor lines. The store is a
// concurrent map of runs keyed by the resultcache content hash of the
// normalized submission, so identical submissions deduplicate to one
// execution: the first POST creates and schedules the run, later ones
// join it, late subscribers replay the run's event log and then tail
// live (obs.Hub). The executor is a fixed pool of slots fed by a
// bounded queue — admission control is a full queue answered with HTTP
// 429, and a drain stops intake, finishes what it can inside a
// deadline, and cancels the rest.
//
// Job failures — sim task panics, deadlines, stalls, retries exhausted,
// injected executor faults — surface as a "failed" run status with
// error detail; they never take the daemon down.
package serve

import (
	"errors"
	"fmt"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

// apiVersion versions the submission identity: bump it when request
// normalization or simulation semantics change in a way that must not
// dedup against runs submitted under the old scheme. Version 2 added
// generative-suite submissions (RunRequest.Suite) to the identity.
const apiVersion = 2

// RunRequest is the POST /runs body. Zero values select documented
// defaults; the normalized form (defaults applied, workloads resolved)
// is what the run is keyed and reported by.
type RunRequest struct {
	// Workloads names suite workloads explicitly (see cmd/tracegen
	// -list). Empty selects a SuiteN subsample instead.
	Workloads []string `json:"workloads,omitempty"`
	// SuiteN picks an evenly spaced subsample of the 662-workload suite
	// when Workloads is empty; 0 means the full suite.
	SuiteN int `json:"suite_n,omitempty"`
	// Suite selects a generated suite instead of the fixed table: the
	// grid parameters plus an optional [lo, hi) index window, so a
	// 100k-workload suite is submitted as a few integers — workers
	// synthesize their shard's specs on demand rather than receiving
	// (or echoing) 100k names. Mutually exclusive with Workloads and
	// SuiteN.
	Suite *SuiteGenDoc `json:"suite,omitempty"`
	// Policies to evaluate; empty selects the paper's five.
	Policies []string `json:"policies,omitempty"`
	// Scale multiplies each workload's default instruction budget;
	// 0 means 1.0.
	Scale float64 `json:"scale,omitempty"`
	// ExecSeed seeds workload execution; 0 means seed 1 (the daemon has
	// no way to request literal seed 0 — it is reserved as "default").
	ExecSeed uint64 `json:"exec_seed,omitempty"`
	// KeepGoing completes the run past failing cells, annotating them
	// in the result instead of failing the job.
	KeepGoing bool `json:"keep_going,omitempty"`
	// Config overrides parts of the paper's default front-end
	// configuration.
	Config *ConfigDoc `json:"config,omitempty"`

	// Parallelism bounds the job's concurrent simulation tasks; 0 uses
	// the server default. Results are bit-identical at any setting, so
	// it is excluded from the dedup identity.
	Parallelism int `json:"parallelism,omitempty"`
	// ProgressEvery is the record interval between streamed tick
	// events; 0 uses the simulator default. Presentation-only, so also
	// excluded from the dedup identity.
	ProgressEvery uint64 `json:"progress_every,omitempty"`
}

// SuiteGenDoc is the wire form of a generated suite: the
// workload.SuiteGen grid parameters (flattened) plus an optional
// execution window. The normalized echo carries defaults applied and
// the window resolved, and is part of the dedup identity — equal grids
// plus equal windows dedup, anything else does not.
type SuiteGenDoc struct {
	workload.SuiteGen
	// Lo/Hi restrict execution to the half-open index window [Lo, Hi)
	// of the generated suite — the distributed coordinator's shard
	// unit. Hi 0 means the full suite.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
}

// ConfigDoc is the request's front-end configuration override; zero
// fields keep the paper's defaults.
type ConfigDoc struct {
	ICacheKB         int  `json:"icache_kb,omitempty"`
	Ways             int  `json:"ways,omitempty"`
	BlockBytes       int  `json:"block_bytes,omitempty"`
	BTBEntries       int  `json:"btb_entries,omitempty"`
	BTBWays          int  `json:"btb_ways,omitempty"`
	NextLinePrefetch bool `json:"next_line_prefetch,omitempty"`
}

// Apply overlays the overrides on cfg. Normalize applies them to the
// paper's default configuration, on every daemon and in the dist
// coordinator alike.
func (d *ConfigDoc) Apply(cfg frontend.Config) frontend.Config {
	if d == nil {
		return cfg
	}
	if d.ICacheKB > 0 {
		cfg.ICache.SizeBytes = d.ICacheKB * 1024
	}
	if d.Ways > 0 {
		cfg.ICache.Ways = d.Ways
	}
	if d.BlockBytes > 0 {
		cfg.ICache.BlockBytes = d.BlockBytes
	}
	if d.BTBEntries > 0 {
		cfg.BTB.Entries = d.BTBEntries
	}
	if d.BTBWays > 0 {
		cfg.BTB.Ways = d.BTBWays
	}
	cfg.NextLinePrefetch = d.NextLinePrefetch
	return cfg
}

// identity is everything that determines a run's simulation output —
// the submission's dedup key material. Parallelism and ProgressEvery
// are deliberately absent: they change pacing and event granularity,
// never results, so submissions differing only there share one
// execution.
type identity struct {
	Version   int
	Workloads []string
	Suite     *SuiteGenDoc
	Policies  []string
	Scale     float64
	ExecSeed  uint64
	KeepGoing bool
	Config    frontend.Config
}

// Job is a fully normalized, validated submission: the request echoed
// with defaults applied, its content-hash identity, and the prepared
// scheduler options (observer-free; the executor attaches one per run).
// Normalize is the only code that builds one from a request: the daemon
// calls it per POST /runs, the dist coordinator once per run.
type Job struct {
	Request RunRequest // normalized
	Key     resultcache.Key
	Options sim.Options
}

// errBadRequest marks a submission rejected at normalization; the
// server answers it with HTTP 400 instead of 500.
type errBadRequest struct{ err error }

func (e *errBadRequest) Error() string { return e.err.Error() }
func (e *errBadRequest) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return &errBadRequest{fmt.Errorf(format, args...)}
}

// IsBadRequest reports whether err is a request-validation failure.
func IsBadRequest(err error) bool {
	var b *errBadRequest
	return errors.As(err, &b)
}

// Normalize resolves a submission into a Job: defaults applied,
// workloads and policies resolved and validated, the identity hashed.
// d carries the server-side knobs (per-job parallelism, cell ceiling,
// cache, timeouts, retries); every daemon applies the overrides to the
// paper's default configuration, so a request means the same run on
// any daemon.
func Normalize(req RunRequest, d Defaults) (Job, error) {
	var j Job

	// Workload resolution: a generated suite or explicit names win over
	// the subsample. Generated suites stay lazy end to end — the source
	// yields specs by index, and the request echo carries the grid
	// parameters, never a name per workload.
	var source workload.Source
	var names []string
	var suiteDoc *SuiteGenDoc
	switch {
	case req.Suite != nil:
		if len(req.Workloads) > 0 || req.SuiteN != 0 {
			return j, badRequestf("serve: suite is mutually exclusive with workloads and suite_n")
		}
		g := req.Suite.SuiteGen.WithDefaults()
		if err := g.Validate(); err != nil {
			return j, &errBadRequest{err}
		}
		lo, hi := req.Suite.Lo, req.Suite.Hi
		if hi == 0 {
			hi = g.N
		}
		if lo < 0 || hi < lo || hi > g.N {
			return j, badRequestf("serve: suite window [%d, %d) out of range [0, %d]", lo, hi, g.N)
		}
		source = workload.NewRange(g, lo, hi)
		suiteDoc = &SuiteGenDoc{SuiteGen: g, Lo: lo, Hi: hi}
	case len(req.Workloads) > 0:
		if req.SuiteN != 0 {
			return j, badRequestf("serve: workloads and suite_n are mutually exclusive")
		}
		// One suite build per request: a 1 MiB body names ~100k
		// workloads, and workload.Find rebuilds the suite per name.
		suite := workload.Suite()
		byName := make(map[string]workload.Spec, len(suite))
		for _, s := range suite {
			byName[s.Name] = s
		}
		specs := make([]workload.Spec, len(req.Workloads))
		for i, name := range req.Workloads {
			spec, ok := byName[name]
			if !ok {
				return j, badRequestf("serve: unknown workload %q", name)
			}
			specs[i] = spec
		}
		source = workload.SliceSource(specs)
	case req.SuiteN < 0:
		return j, badRequestf("serve: suite_n %d is negative", req.SuiteN)
	case req.SuiteN == 0:
		source = workload.SliceSource(workload.Suite())
	default:
		source = workload.SliceSource(workload.SuiteN(req.SuiteN))
	}
	if suiteDoc == nil {
		names = make([]string, source.Len())
		for i := range names {
			names[i] = source.At(i).Name
		}
	}

	kinds := frontend.PaperPolicies()
	if len(req.Policies) > 0 {
		kinds = make([]frontend.PolicyKind, len(req.Policies))
		for i, name := range req.Policies {
			k, err := frontend.ParsePolicy(name)
			if err != nil {
				return j, &errBadRequest{err}
			}
			kinds[i] = k
		}
	}
	policyNames := make([]string, len(kinds))
	for i, k := range kinds {
		policyNames[i] = k.String()
	}

	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return j, badRequestf("serve: scale %v is negative", scale)
	}
	if err := sim.CheckScale(scale); err != nil {
		return j, &errBadRequest{err}
	}
	seed := req.ExecSeed
	if seed == 0 {
		seed = 1
	}
	cfg := req.Config.Apply(frontend.DefaultConfig())
	if err := cfg.Validate(); err != nil {
		return j, &errBadRequest{err}
	}
	// Compared by division: a generated suite's size is any int, and
	// its product with the policy count can overflow past the limit.
	if d.MaxCells > 0 && source.Len() > d.MaxCells/len(kinds) {
		return j, badRequestf("serve: request is %d workloads x %d policies, over the daemon limit of %d cells — shrink suite_n or the policy list",
			source.Len(), len(kinds), d.MaxCells)
	}

	parallelism := req.Parallelism
	if parallelism <= 0 {
		parallelism = d.JobParallelism
	}

	j.Request = RunRequest{
		Workloads:     names,
		Suite:         suiteDoc,
		Policies:      policyNames,
		Scale:         scale,
		ExecSeed:      seed,
		KeepGoing:     req.KeepGoing,
		Config:        req.Config,
		Parallelism:   parallelism,
		ProgressEvery: req.ProgressEvery,
	}
	j.Options = sim.Options{
		Source:        source,
		Config:        cfg,
		Policies:      kinds,
		Scale:         scale,
		Parallelism:   parallelism,
		ExecSeed:      seed,
		ProgressEvery: req.ProgressEvery,
		KeepGoing:     req.KeepGoing,
		Cache:         d.Cache,
		TaskTimeout:   d.TaskTimeout,
		StallTimeout:  d.StallTimeout,
	}
	var err error
	j.Key, err = j.key()
	return j, err
}

// Window narrows a normalized job to workloads [lo, hi) of its source,
// without resolving anything again: the request names that slice of the
// workloads (or the matching index window of a generated suite), the
// options run workload.NewRange over the source, and the key is the one
// Normalize gives that narrowed request. The dist coordinator builds
// its shards this way.
func (j Job) Window(lo, hi int) (Job, error) {
	w := j
	w.Options.Source = workload.NewRange(j.Options.Source, lo, hi)
	if s := j.Request.Suite; s != nil {
		w.Request.Suite = &SuiteGenDoc{SuiteGen: s.SuiteGen, Lo: s.Lo + lo, Hi: s.Lo + hi}
	} else {
		w.Request.Workloads = j.Request.Workloads[lo:hi]
	}
	var err error
	w.Key, err = w.key()
	return w, err
}

// key hashes the job's identity from its normalized request and its
// resolved configuration.
func (j Job) key() (resultcache.Key, error) {
	r := j.Request
	return resultcache.KeyOf(identity{
		Version:   apiVersion,
		Workloads: r.Workloads,
		Suite:     r.Suite,
		Policies:  r.Policies,
		Scale:     r.Scale,
		ExecSeed:  r.ExecSeed,
		KeepGoing: r.KeepGoing,
		Config:    j.Options.Config,
	})
}

// SubmitResponse is the POST /runs body: whether this submission
// created the run (false = deduplicated onto an existing one) and the
// run's status document.
type SubmitResponse struct {
	Created bool      `json:"created"`
	Status  StatusDoc `json:"status"`
}

// StatusDoc is the run-status document served by GET /runs/{id} and as
// the SSE terminal "status" event.
type StatusDoc struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Request echoes the normalized submission (defaults applied,
	// workloads resolved to explicit names).
	Request    RunRequest `json:"request"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Error carries the failure or cancellation detail of a terminal
	// run; empty otherwise.
	Error string `json:"error,omitempty"`
	// Submits counts how many submissions deduplicated onto this run
	// (1 = no duplicates yet).
	Submits int `json:"submits"`
	// Subscribers is the number of currently attached event streams.
	Subscribers int `json:"subscribers"`
	// Events is the length of the run's replayable event log.
	Events int `json:"events"`
	// Progress summarizes the run so far.
	Progress ProgressDoc `json:"progress"`
}

// ProgressDoc is a run's live progress summary, folded from its event
// stream.
type ProgressDoc struct {
	Workloads       int    `json:"workloads"`
	WorkloadsDone   int    `json:"workloads_done"`
	WorkloadsFailed int    `json:"workloads_failed,omitempty"`
	Records         uint64 `json:"records"`
	CacheHits       int    `json:"cache_hits"`
	CacheMisses     int    `json:"cache_misses"`
	Retries         int    `json:"retries,omitempty"`
}

// ResultDoc is the GET /runs/{id}/result body: per-policy MPKI vectors
// over the run's workloads plus the run's observability stats. It is
// marshaled exactly once per run, so every deduplicated subscriber
// downloads bit-identical bytes.
type ResultDoc struct {
	ID         string               `json:"id"`
	Workloads  []string             `json:"workloads"`
	Policies   []string             `json:"policies"`
	ICacheMPKI map[string][]float64 `json:"icache_mpki"`
	BTBMPKI    map[string][]float64 `json:"btb_mpki"`
	BranchMPKI []float64            `json:"branch_mpki"`
	// Failed lists keep-going annotations: workloads whose cells did
	// not complete (their MPKI entries are zero-filled).
	Failed []RunErrorDoc `json:"failed,omitempty"`
	Stats  RunStatsDoc   `json:"stats"`
}

// RunErrorDoc is one failed workload's annotation in a keep-going run.
type RunErrorDoc struct {
	Workload string `json:"workload"`
	Error    string `json:"error"`
}

// RunStatsDoc summarizes obs.RunStats for the wire.
type RunStatsDoc struct {
	WallMS           float64 `json:"wall_ms"`
	Records          uint64  `json:"records"`
	RecordsPerSec    float64 `json:"records_per_sec"`
	CacheHits        int     `json:"cache_hits"`
	CacheMisses      int     `json:"cache_misses"`
	Retries          int     `json:"retries,omitempty"`
	CacheQuarantines int     `json:"cache_quarantines,omitempty"`
}

// EventDoc is one obs event on the SSE wire.
type EventDoc struct {
	Seq           int     `json:"seq"`
	Kind          string  `json:"kind"`
	Workload      string  `json:"workload,omitempty"`
	WorkloadIndex int     `json:"workload_index"`
	Workloads     int     `json:"workloads,omitempty"`
	Policy        string  `json:"policy,omitempty"`
	PolicyIndex   int     `json:"policy_index"`
	Policies      int     `json:"policies,omitempty"`
	Records       uint64  `json:"records,omitempty"`
	Instructions  uint64  `json:"instructions,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms,omitempty"`
	Error         string  `json:"error,omitempty"`
	CacheMiss     bool    `json:"cache_miss,omitempty"`
	Attempt       int     `json:"attempt,omitempty"`
}

// eventDoc converts one logged event for the wire.
func eventDoc(seq int, e obs.Event) EventDoc {
	d := EventDoc{
		Seq:           seq,
		Kind:          e.Kind.String(),
		Workload:      e.Workload,
		WorkloadIndex: e.WorkloadIndex,
		Workloads:     e.Workloads,
		Policy:        e.Policy,
		PolicyIndex:   e.PolicyIndex,
		Policies:      e.Policies,
		Records:       e.Records,
		Instructions:  e.Instructions,
		ElapsedMS:     float64(e.Elapsed) / float64(time.Millisecond),
		CacheMiss:     e.CacheMiss,
		Attempt:       e.Attempt,
	}
	if e.Err != nil {
		d.Error = e.Err.Error()
	}
	return d
}

// ErrorDoc is the JSON body of every non-2xx response.
type ErrorDoc struct {
	Error string `json:"error"`
	// State is attached when the error is about a run's current state
	// (e.g. result requested before completion).
	State string `json:"state,omitempty"`
}

// HealthDoc is the GET /healthz body.
type HealthDoc struct {
	Status   string `json:"status"`
	Runs     int    `json:"runs"`
	Draining bool   `json:"draining"`
}
