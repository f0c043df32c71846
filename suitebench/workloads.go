package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"ghrpsim/internal/dist"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/serve"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

// workloadDef is one benchmark workload: a suite, a policy roster and an
// instruction-budget scale, run in process or through the distributed
// coordinator. Sizes are constants, so a seed always gives the same
// work. They keep a repetition near two seconds on a 2-vCPU host, so a
// run holds ten or more and its medians are steady. Tests shrink them.
type workloadDef struct {
	name, why string
	fixedN    int // >0: an evenly spaced subsample of the fixed table, workload.SuiteN(fixedN)
	genN      int // >0: a generated grid of this size
	policies  []frontend.PolicyKind
	scale     float64
	// cached adds, in traced runs, a repetition over fresh result caches:
	// a cold pass that fills them, then a warm pass that reads them back.
	// Measured repetitions run uncached (see README.md, "Why the measured
	// passes run uncached").
	cached bool
	// loopback runs passes through dist.New over in-process serve
	// daemons, one per CPU, each with one slot.
	loopback  bool
	shardSize int
}

var workloads = []workloadDef{
	{
		name:     "paper-suite",
		why:      "the paper's experiment as users run it: the fixed 662-workload table x five policies through sim.Run, where policy lanes do most of the replay work",
		fixedN:   workload.SuiteSize,
		policies: frontend.PaperPolicies(),
		scale:    0.1,
	},
	{
		name:     "front-lru",
		why:      "the same front end with one cheap LRU lane: interpreter, fetch and predictors dominate, so a lane-only optimisation must not move it",
		fixedN:   workload.SuiteSize,
		policies: []frontend.PolicyKind{frontend.PolicyLRU},
		scale:    0.2,
	},
	{
		name:     "suite-gen",
		why:      "a generated grid at tiny budgets through sim.Run: program generation, scheduling and per-workload set-up dominate and lanes nearly vanish",
		genN:     2000,
		policies: frontend.PaperPolicies(),
		scale:    0.002,
		cached:   true,
	},
	{
		name:      "dist-loopback",
		why:       "the suite-gen grid through dist.New over loopback serve daemons: the only workload crossing serve JSON/SSE and dist dispatch and merge",
		genN:      2000,
		policies:  frontend.PaperPolicies(),
		scale:     0.002,
		cached:    true,
		loopback:  true,
		shardSize: 16,
	},
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// suite is the population one pass runs: fixed-table specs or a
// generated grid.
type suite struct {
	fixed []workload.Spec
	gen   *workload.SuiteGen
}

// suite is the workload's population. The grid keeps the generator's
// default seed: program sizes vary by 15% between grid seeds at this
// size, and that would swamp the run-to-run comparison, so a benchmark
// seed varies the execution seed alone, as it does for the fixed table.
func (d workloadDef) suite() suite {
	if d.genN > 0 {
		return suite{gen: &workload.SuiteGen{N: d.genN, FootprintMin: 0.2, FootprintMax: 1.0}}
	}
	return suite{fixed: workload.SuiteN(d.fixedN)}
}

func (s suite) source() workload.Source {
	if s.gen != nil {
		return *s.gen
	}
	return workload.SliceSource(s.fixed)
}

// head is the suite's first n workloads (a generated workload does not
// depend on the grid size).
func (s suite) head(n int) suite {
	if s.gen != nil {
		g := *s.gen
		g.N = n
		return suite{gen: &g}
	}
	return suite{fixed: s.fixed[:n]}
}

// passResult is one pass over a suite. digest is the SHA-256 of the
// deterministic result document (dist.Merged.IdentityJSON), whatever ran
// the pass. A pass keeps no measurements: what a run retains from one
// repetition to the next would grow the live heap, and with it the
// garbage collector's heap goal, so later repetitions would collect
// less often than earlier ones.
type passResult struct {
	wall       time.Duration
	digest     string
	cells      int // (workload, policy) results delivered
	failed     int // failed shard attempts and retried requests; a failed in-process cell fails the pass
	dispatches int
	cacheHits  int
	totals     *totals    // in-process passes
	stats      dist.Stats // loopback passes
	trace      *passTrace // traced passes
}

// runner runs passes against one repetition's fresh state: an empty
// result cache, or freshly started daemons with empty caches.
type runner interface {
	pass(ctx context.Context, s suite, seed uint64, pt *passTrace) (passResult, error)
	close() error
}

// newRunner makes a repetition's runner, with fresh result caches when
// cached is set.
func newRunner(d workloadDef, cached bool) (runner, error) {
	if d.loopback {
		return newLoopback(d, cached)
	}
	return newInProcess(d, cached)
}

// inProcess runs passes through sim.Run, with a result cache when cache
// is set.
type inProcess struct {
	def   workloadDef
	dir   string
	cache *resultcache.Cache
}

func newInProcess(d workloadDef, cached bool) (*inProcess, error) {
	r := &inProcess{def: d}
	if !cached {
		return r, nil
	}
	dir, err := os.MkdirTemp("", "suitebench-cache-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	if r.cache, err = resultcache.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return r, nil
}

func (r *inProcess) pass(ctx context.Context, s suite, seed uint64, pt *passTrace) (passResult, error) {
	opts := sim.Options{
		Source:      s.source(),
		Policies:    r.def.policies,
		Scale:       r.def.scale,
		Parallelism: runtime.GOMAXPROCS(0),
		ExecSeed:    seed,
		Cache:       r.cache,
	}
	if pt != nil {
		opts.Observer = pt.observeSim
	}
	start := time.Now()
	m, err := sim.RunContext(ctx, opts)
	wall := time.Since(start)
	if err != nil {
		return passResult{}, err
	}
	id, err := identityOf(m)
	if err != nil {
		return passResult{}, err
	}
	t := totalsOf(m)
	return passResult{
		wall:      wall,
		digest:    digest(id),
		cells:     len(m.Raw) * len(m.Policies),
		cacheHits: m.Stats.CacheHits,
		totals:    &t,
	}, nil
}

func (r *inProcess) close() error {
	if r.dir == "" {
		return nil
	}
	return os.RemoveAll(r.dir)
}

// identityOf folds in-process measurements into the distributed
// coordinator's result document, the way a daemon and the coordinator's
// reference run do, so every workload's digest has one form.
func identityOf(m *sim.Measurements) ([]byte, error) {
	doc := serve.ResultDocFor("", m)
	merged := dist.Merged{Workloads: doc.Workloads, Policies: doc.Policies,
		ICacheMPKI: doc.ICacheMPKI, BTBMPKI: doc.BTBMPKI, BranchMPKI: doc.BranchMPKI, Failed: doc.Failed}
	return merged.IdentityJSON()
}

// daemon is one ghrpd worker served from this process on a loopback
// port, with its own result cache when dir is set. While trace is set,
// its requests are recorded.
type daemon struct {
	srv   *serve.Server
	hs    *http.Server
	url   string
	dir   string
	done  chan error
	trace atomic.Pointer[passTrace]
}

func startDaemon(cached bool) (*daemon, error) {
	var dir string
	var cache *resultcache.Cache
	if cached {
		var err error
		if dir, err = os.MkdirTemp("", "suitebench-worker-"); err != nil {
			return nil, err
		}
		if cache, err = resultcache.Open(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	d := &daemon{dir: dir, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	// One slot at job parallelism 1 keeps simulation concurrency at one
	// goroutine per daemon. MaxRuns 2 keeps a warm submission from joining
	// its retained cold run, so it exercises the result cache, and the
	// queue absorbs a submission that arrives while the previous run's
	// slot is still being released.
	d.srv = serve.New(serve.Config{
		Slots:      1,
		QueueDepth: 4,
		MaxRuns:    2,
		Defaults:   serve.Defaults{JobParallelism: 1, Cache: cache},
	})
	d.hs = &http.Server{Handler: d, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if pt := d.trace.Load(); pt != nil {
		pt.serve(d.srv, w, r)
		return
	}
	d.srv.ServeHTTP(w, r)
}

// stop drains the daemon, closes its listener, waits for the serve
// loop to return and removes its cache.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if d.dir != "" {
		err = errors.Join(err, os.RemoveAll(d.dir))
	}
	return err
}

type loopback struct {
	def     workloadDef
	daemons []*daemon
}

func newLoopback(d workloadDef, cached bool) (*loopback, error) {
	r := &loopback{def: d}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		dm, err := startDaemon(cached)
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.daemons = append(r.daemons, dm)
	}
	return r, nil
}

func (r *loopback) pass(ctx context.Context, s suite, seed uint64, pt *passTrace) (passResult, error) {
	workers := make([]dist.WorkerSpec, len(r.daemons))
	for i, d := range r.daemons {
		workers[i] = dist.WorkerSpec{Name: fmt.Sprintf("w%d", i), URL: d.url}
		d.trace.Store(pt)
	}
	defer func() {
		for _, d := range r.daemons {
			d.trace.Store(nil)
		}
	}()
	policies := make([]string, len(r.def.policies))
	for i, k := range r.def.policies {
		policies[i] = k.String()
	}
	opts := dist.Options{
		Suite:       s.gen,
		Policies:    policies,
		Scale:       r.def.scale,
		ExecSeed:    seed,
		Parallelism: 1,
		Workers:     workers,
		ShardSize:   r.def.shardSize,
		// No hedging and no health probes: dispatch counts stay exact and
		// each daemon holds one connection at a time.
		HedgeAfter: -1,
		ProbeEvery: -1,
	}
	if pt != nil {
		opts.Observer = pt.observeDist
	}
	start := time.Now()
	c, err := dist.New(opts)
	if err != nil {
		return passResult{}, err
	}
	m, err := c.Run(ctx)
	wall := time.Since(start)
	if err != nil {
		return passResult{}, err
	}
	id, err := m.IdentityJSON()
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		wall:       wall,
		digest:     digest(id),
		cells:      len(m.Workloads) * len(m.Policies),
		failed:     m.Stats.ShardFailures + m.Stats.Retries + len(m.Failed),
		dispatches: m.Stats.Dispatches,
		cacheHits:  m.Stats.WorkerCacheHits,
		stats:      m.Stats,
	}, nil
}

func (r *loopback) close() error {
	var err error
	for _, d := range r.daemons {
		err = errors.Join(err, d.stop())
	}
	// The coordinator's clients share the default transport; drop its
	// connections to the stopped daemons.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}
