// Command ghrpdist is the fault-tolerant distributed suite runner: a
// coordinator that shards a suite across a roster of ghrpd workers —
// remote URLs and/or locally spawned subprocesses, treated identically
// — and merges their partial results into a document bit-identical to a
// single-process run. Workers that fail are retried, quarantined and
// probed back in; stragglers are hedged; with the whole roster gone the
// coordinator degrades to running shards in-process. See DESIGN.md §9.
//
// Usage:
//
//	ghrpdist [-workers URL,URL,...] [-spawn N] [-worker-cmd ghrpd]
//	         [-suite-n N | -workloads a,b,c | -gen N] [-policies LRU,...]
//	         [-gen-seed n] [-gen-mix sm,lm,ss,ls] [-gen-footprint lo,hi]
//	         [-gen-steps N] [-merge-window N]
//	         [-scale f] [-seed n] [-keep-going] [-parallelism N]
//	         [-shard-size N] [-hedge-after d] [-probe-every d]
//	         [-quarantine-after N] [-shard-attempts N] [-no-local]
//	         [-out results.json] [-verify] [-progress] [-smoke]
//	         [-scale-smoke]
//
// -gen N runs an N-workload generated suite (category-mix x
// footprint-sweep x seed grid) instead of the fixed table; shard
// requests carry only the grid parameters plus an index window, so
// suites far larger than the 662-entry table cost O(1) bytes to
// describe. -merge-window bounds how many out-of-order shard results
// the coordinator may hold parked (0 = auto; must not be negative).
//
// -verify additionally runs the identical suite single-process and
// fails (exit 1) unless the merged result matches byte for byte — the
// determinism premise, checked on demand.
//
// -smoke is the end-to-end self-test `make dist-smoke` wires into CI:
// spawn two workers via -worker-cmd, kill one of them the moment its
// first shard dispatch is announced, and require the merged result to
// still verify against the single-process reference.
//
// -scale-smoke is the scaling self-test `make dist-scale-smoke` wires
// into CI: spawn two workers, run a generated multi-thousand-workload
// suite through them while sampling the coordinator's heap, and
// require (a) bit-identity against the in-process reference and (b) a
// peak coordinator heap far below what buffering every shard result
// would cost — the streaming-merge memory guarantee, checked for real.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ghrpsim/internal/dist"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/workload"
)

func main() {
	var (
		workers    = flag.String("workers", "", "comma-separated worker base URLs, e.g. http://host:8317,http://host:8318")
		spawn      = flag.Int("spawn", 0, "additionally spawn N local ghrpd worker subprocesses")
		workerCmd  = flag.String("worker-cmd", "ghrpd", "command to spawn workers with (resolved via PATH)")
		suiteN     = flag.Int("suite-n", 0, "run an N-workload suite subsample (0 = full suite)")
		workloads  = flag.String("workloads", "", "comma-separated workload names (overrides -suite-n)")
		gen        = flag.Int("gen", 0, "run an N-workload generated suite instead of the fixed table")
		genSeed    = flag.Uint64("gen-seed", 0, "generated-suite base seed (0 = default)")
		genMix     = flag.String("gen-mix", "", "generated-suite category weights short_mobile,long_mobile,short_server,long_server (empty = fixed-suite proportions)")
		genFoot    = flag.String("gen-footprint", "", "generated-suite footprint multiplier bounds min,max (empty = defaults)")
		genSteps   = flag.Int("gen-steps", 0, "generated-suite footprint sweep steps (0 = default)")
		window     = flag.Int("merge-window", 0, "max out-of-order shard results parked at the coordinator (0 = auto)")
		policies   = flag.String("policies", "", "comma-separated policies (empty = the paper's five)")
		scale      = flag.Float64("scale", 1.0, "instruction-budget scale factor")
		seed       = flag.Uint64("seed", 1, "workload execution seed")
		keepGoing  = flag.Bool("keep-going", false, "complete past failing cells, annotating them")
		par        = flag.Int("parallelism", 0, "per-shard scheduler parallelism hint (0 = worker defaults)")
		shardSize  = flag.Int("shard-size", 0, "workloads per shard (0 = auto from roster size)")
		hedge      = flag.Duration("hedge-after", 0, "re-dispatch a shard whose attempt shows no liveness for this long (0 = default, negative = off)")
		probe      = flag.Duration("probe-every", 0, "worker health-probe period (0 = default, negative = off)")
		quarantine = flag.Int("quarantine-after", 0, "consecutive failures before a worker is quarantined (0 = default)")
		attempts   = flag.Int("shard-attempts", 0, "remote dispatch budget per shard before local fallback (0 = default)")
		noLocal    = flag.Bool("no-local", false, "disable the in-process fallback (exhausted shards fail the run)")
		out        = flag.String("out", "", "write the merged result JSON here (empty = stdout)")
		verify     = flag.Bool("verify", false, "also run single-process and require bit-identical results")
		progress   = flag.Bool("progress", false, "stream live progress to stderr")
		timeout    = flag.Duration("timeout", 0, "overall run deadline (0 = none)")
		smoke      = flag.Bool("smoke", false, "run the kill-a-worker self-test and exit")
		scaleSmoke = flag.Bool("scale-smoke", false, "run the generated-suite scaling self-test and exit")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "ghrpdist: ", log.LstdFlags)

	if *smoke {
		if err := runSmoke(logger, *workerCmd); err != nil {
			logger.Fatalf("smoke: %v", err)
		}
		logger.Print("smoke: ok")
		return
	}
	if *scaleSmoke {
		if err := runScaleSmoke(logger, *workerCmd); err != nil {
			logger.Fatalf("scale-smoke: %v", err)
		}
		logger.Print("scale-smoke: ok")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	roster, cleanup, err := buildRoster(logger, splitList(*workers), *spawn, *workerCmd)
	if err != nil {
		logger.Fatal(err)
	}
	defer cleanup()

	opts := dist.Options{
		Workloads:       splitList(*workloads),
		SuiteN:          *suiteN,
		Policies:        splitList(*policies),
		Scale:           *scale,
		ExecSeed:        *seed,
		KeepGoing:       *keepGoing,
		Parallelism:     *par,
		Workers:         roster,
		ShardSize:       *shardSize,
		MergeWindow:     *window,
		HedgeAfter:      *hedge,
		ProbeEvery:      *probe,
		QuarantineAfter: *quarantine,
		ShardAttempts:   *attempts,
		DisableLocal:    *noLocal,
	}
	if *gen > 0 {
		g, err := genSuite(*gen, *genSeed, *genMix, *genFoot, *genSteps)
		if err != nil {
			logger.Fatal(err)
		}
		opts.Suite = g
		opts.SuiteN = 0
		opts.Workloads = nil
	}
	if *progress {
		opts.Observer = obs.NewProgress(os.Stderr, 250*time.Millisecond)
	}
	if len(splitList(*workloads)) > 0 {
		opts.SuiteN = 0
	}
	c, err := dist.New(opts)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("running %d shards over %d workers", c.Shards(), len(roster))

	m, err := c.Run(ctx)
	if err != nil {
		logger.Fatal(err)
	}
	st := m.Stats
	logger.Printf("done: %d dispatches, %d shard failures, %d hedges, %d local shards, %d retries, %d quarantines, %d reinstates, %.0f ms",
		st.Dispatches, st.ShardFailures, st.Hedges, st.LocalShards, st.Retries, st.Quarantines, st.Reinstates, st.WallMS)

	if *verify {
		if err := verifyAgainstReference(ctx, c, m); err != nil {
			logger.Fatal(err)
		}
		logger.Print("verified: merged result is bit-identical to the single-process reference")
	}

	blob, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		logger.Fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("wrote %s", *out)
}

// genSuite assembles a workload.SuiteGen from the -gen* flags; zero
// values defer to the generator's defaults.
func genSuite(n int, seed uint64, mix, foot string, steps int) (*workload.SuiteGen, error) {
	g := &workload.SuiteGen{N: n, Seed: seed, FootprintSteps: steps}
	if mix != "" {
		w, err := parseFloats("-gen-mix", mix, 4)
		if err != nil {
			return nil, err
		}
		g.Mix = workload.Mix{ShortMobile: w[0], LongMobile: w[1], ShortServer: w[2], LongServer: w[3]}
	}
	if foot != "" {
		b, err := parseFloats("-gen-footprint", foot, 2)
		if err != nil {
			return nil, err
		}
		g.FootprintMin, g.FootprintMax = b[0], b[1]
	}
	return g, nil
}

func parseFloats(flagName, s string, n int) ([]float64, error) {
	parts := splitList(s)
	if len(parts) != n {
		return nil, fmt.Errorf("%s wants %d comma-separated numbers, got %q", flagName, n, s)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", flagName, err)
		}
		out[i] = v
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	var outp []string
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			outp = append(outp, p)
		}
	}
	return outp
}

// buildRoster combines remote URLs with freshly spawned local workers.
// The returned cleanup stops every spawned subprocess (SIGTERM, then
// kill) and is safe to call exactly once.
func buildRoster(logger *log.Logger, urls []string, spawn int, workerCmd string) ([]dist.WorkerSpec, func(), error) {
	var roster []dist.WorkerSpec
	for i, u := range urls {
		roster = append(roster, dist.WorkerSpec{Name: fmt.Sprintf("remote%d", i), URL: u})
	}
	var procs []*dist.Proc
	cleanup := func() {
		var wg sync.WaitGroup
		for _, p := range procs {
			wg.Add(1)
			go func(p *dist.Proc) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				p.Stop(ctx)
			}(p)
		}
		wg.Wait()
	}
	for i := 0; i < spawn; i++ {
		p, err := dist.Spawn(workerCmd, nil, os.Stderr)
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		procs = append(procs, p)
		name := fmt.Sprintf("spawned%d", i)
		logger.Printf("spawned %s at %s", name, p.URL())
		roster = append(roster, dist.WorkerSpec{Name: name, URL: p.URL(), Proc: p})
	}
	if len(roster) == 0 {
		logger.Print("empty roster: running the whole suite in-process")
	}
	return roster, cleanup, nil
}

// verifyAgainstReference re-runs the suite single-process and compares
// the identity documents byte for byte.
func verifyAgainstReference(ctx context.Context, c *dist.Coordinator, m *dist.Merged) error {
	got, err := m.IdentityJSON()
	if err != nil {
		return err
	}
	ref, err := c.Reference(ctx)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	want, err := ref.IdentityJSON()
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return fmt.Errorf("verify: merged result differs from the single-process reference\n--- merged ---\n%s\n--- reference ---\n%s", got, want)
	}
	return nil
}

// runSmoke is the CI self-test: spawn two workers, kill one mid-suite
// at its first dispatched shard, and require the merged result to be
// bit-identical to the single-process reference anyway.
func runSmoke(logger *log.Logger, workerCmd string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	victim, err := dist.Spawn(workerCmd, nil, os.Stderr)
	if err != nil {
		return fmt.Errorf("spawning victim: %w", err)
	}
	survivor, err := dist.Spawn(workerCmd, nil, os.Stderr)
	if err != nil {
		victim.Kill()
		return fmt.Errorf("spawning survivor: %w", err)
	}
	var killOnce sync.Once
	killedC := make(chan struct{})
	defer func() {
		killOnce.Do(func() { victim.Kill(); close(killedC) })
		sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer scancel()
		survivor.Stop(sctx)
	}()
	logger.Printf("smoke: spawned victim %s and survivor %s", victim.URL(), survivor.URL())

	// Kill the victim synchronously inside the observer at its first
	// announced dispatch — the submission is guaranteed to hit a dead
	// process, exercising quarantine and redispatch for real.
	observe := func(e obs.Event) {
		if e.Kind == obs.ShardDispatch && e.Worker == "victim" {
			killOnce.Do(func() {
				logger.Print("smoke: killing victim mid-suite")
				victim.Kill()
				close(killedC)
			})
		}
	}

	c, err := dist.New(dist.Options{
		SuiteN:          4,
		Policies:        []string{"LRU", "GHRP"},
		Scale:           0.01,
		Parallelism:     2,
		ProgressEvery:   4096,
		ShardSize:       1,
		HedgeAfter:      -1,
		ProbeEvery:      50 * time.Millisecond,
		QuarantineAfter: 2,
		Workers: []dist.WorkerSpec{
			{Name: "victim", URL: victim.URL(), Proc: victim},
			{Name: "survivor", URL: survivor.URL(), Proc: survivor},
		},
		Observer: observe,
	})
	if err != nil {
		return err
	}
	m, err := c.Run(ctx)
	if err != nil {
		return err
	}
	select {
	case <-killedC:
	default:
		return fmt.Errorf("victim was never dispatched to; the crash path went unexercised")
	}
	if m.Stats.ShardFailures < 1 {
		return fmt.Errorf("stats report %d shard failures, want >= 1 after the kill", m.Stats.ShardFailures)
	}
	logger.Printf("smoke: survived the kill (%d dispatches, %d shard failures, %d quarantines)",
		m.Stats.Dispatches, m.Stats.ShardFailures, m.Stats.Quarantines)
	if err := verifyAgainstReference(ctx, c, m); err != nil {
		return err
	}
	logger.Print("smoke: merged result is bit-identical to the single-process reference")
	return nil
}

// runScaleSmoke is the CI scaling self-test: a generated
// multi-thousand-workload suite over two spawned workers, with the
// coordinator's heap sampled throughout the distributed run. It fails
// unless the merged result is bit-identical to the in-process
// reference AND peak coordinator heap stayed under a ceiling sized
// well below what buffering every shard result would need — so a
// regression back to O(suite) coordinator memory trips CI, not a
// pager.
func runScaleSmoke(logger *log.Logger, workerCmd string) error {
	const (
		suiteSize   = 5000
		shardSize   = 100
		heapCeiling = 256 << 20 // bytes; generous vs the O(window) target, tiny vs O(suite) buffering
	)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	var procs []*dist.Proc
	defer func() {
		for _, p := range procs {
			sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
			p.Stop(sctx)
			scancel()
		}
	}()
	var roster []dist.WorkerSpec
	for i := 0; i < 2; i++ {
		p, err := dist.Spawn(workerCmd, nil, os.Stderr)
		if err != nil {
			return fmt.Errorf("spawning worker %d: %w", i, err)
		}
		procs = append(procs, p)
		roster = append(roster, dist.WorkerSpec{Name: fmt.Sprintf("w%d", i), URL: p.URL(), Proc: p})
	}
	logger.Printf("scale-smoke: %d generated workloads over 2 spawned workers", suiteSize)

	// Sample the coordinator's own heap only while the distributed run
	// is in flight — the single-process reference afterwards is allowed
	// to (and does) hold the whole suite.
	var peak atomic.Uint64
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()

	c, err := dist.New(dist.Options{
		Suite:      &workload.SuiteGen{N: suiteSize, FootprintMin: 0.2, FootprintMax: 1.0},
		Policies:   []string{"LRU", "GHRP"},
		Scale:      0.001,
		ShardSize:  shardSize,
		HedgeAfter: -1,
		Workers:    roster,
		Observer:   obs.NewProgress(os.Stderr, time.Second),
	})
	if err != nil {
		close(stopSampling)
		return err
	}
	m, err := c.Run(ctx)
	close(stopSampling)
	<-sampled
	if err != nil {
		return err
	}
	peakMB := float64(peak.Load()) / (1 << 20)
	logger.Printf("scale-smoke: merged %d workloads, peak coordinator heap %.1f MB, parked peak %d, affinity %d/%d, worker cache hits %d",
		len(m.Workloads), peakMB, m.Stats.MergeParkedPeak, m.Stats.AffinityHits, m.Stats.AffinityHits+m.Stats.AffinityMisses, m.Stats.WorkerCacheHits)
	if len(m.Workloads) != suiteSize {
		return fmt.Errorf("merged %d workloads, want %d", len(m.Workloads), suiteSize)
	}
	if peak.Load() > heapCeiling {
		return fmt.Errorf("peak coordinator heap %.1f MB exceeds the %d MB ceiling — streaming merge is buffering", peakMB, heapCeiling>>20)
	}
	if err := verifyAgainstReference(ctx, c, m); err != nil {
		return err
	}
	logger.Print("scale-smoke: merged result is bit-identical to the in-process reference")
	return nil
}
