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
//	         [-gen-steps N]
//	         [-scale f] [-seed n] [-keep-going] [-parallelism N]
//	         [-shard-size N] [-hedge-after d] [-probe-every d]
//	         [-quarantine-after N] [-shard-attempts N] [-no-local]
//	         [-out results.json] [-verify] [-progress] [-timeout d]
//
// -gen N runs an N-workload generated suite (category-mix x
// footprint-sweep x seed grid) instead of the fixed table; shard
// requests carry only the grid parameters plus an index window, so
// suites far larger than the 662-entry table cost O(1) bytes to
// describe.
//
// -verify additionally runs the identical suite single-process and
// fails (exit 1) unless the merged result matches byte for byte — the
// determinism premise, checked on demand.
//
// The coordinator's fault drills (a worker SIGKILLed mid-suite, a
// 5000-workload generated suite under a coordinator heap ceiling) are
// Go tests in internal/dist that spawn the real ghrpd binary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
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
	)
	flag.Parse()
	logger := log.New(os.Stderr, "ghrpdist: ", log.LstdFlags)

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
