// Command ghrpsim simulates one suite workload (or a trace file) through
// the front end under one replacement policy and prints its statistics.
//
// Suite workloads are replayed by streaming the deterministic record
// stream straight into the simulator (no record buffer); -trace reads
// its file whole to size the warm-up window. -analyze profiles the
// I-cache accesses tapped off the simulator. SIGINT/SIGTERM cancels a
// streaming replay promptly.
//
// Usage:
//
//	ghrpsim [-workload NAME | -trace FILE] [-policy ghrp] [-instrs N]
//	        [-icache-kb 64] [-ways 8] [-block 64] [-btb-entries 4096] [-btb-ways 4]
//	        [-heatmap] [-progress] [-cache-dir DIR] [-timeout d] [-task-timeout d]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -timeout bounds the whole invocation and -task-timeout the replay
// itself; an expired deadline exits
// nonzero with an explanatory error instead of hanging. -cpuprofile
// and -memprofile write pprof profiles, flushed on every exit path
// including deadline aborts.
//
// -cache-dir attaches the on-disk result cache shared with
// cmd/experiments: a repeated invocation of the same (workload, policy,
// config, instrs) cell prints the stored statistics without simulating.
// Simulator-state outputs (-heatmap, -pgm, -analyze) and -trace input
// always simulate, since the cache stores results, not simulator state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ghrpsim/internal/analysis"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/prof"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

func main() {
	var (
		wlName     = flag.String("workload", "SS-001", "suite workload name (see tracegen -list)")
		traceFile  = flag.String("trace", "", "binary trace file (overrides -workload)")
		policy     = flag.String("policy", "GHRP", "replacement policy: LRU, Random, FIFO, SRRIP, SDBP, GHRP")
		instrs     = flag.Uint64("instrs", 0, "instruction budget (0 = workload default)")
		icacheKB   = flag.Int("icache-kb", 64, "I-cache size in KB")
		ways       = flag.Int("ways", 8, "I-cache associativity")
		block      = flag.Int("block", 64, "I-cache block size in bytes")
		btbEntries = flag.Int("btb-entries", 4096, "BTB entries")
		btbWays    = flag.Int("btb-ways", 4, "BTB associativity")
		heatmap    = flag.Bool("heatmap", false, "print the I-cache efficiency heat map")
		pgm        = flag.String("pgm", "", "write the I-cache efficiency heat map as a PGM image")
		analyze    = flag.Bool("analyze", false, "print reuse-distance and working-set profiles")
		progress   = flag.Bool("progress", false, "stream live replay progress to stderr")
		cacheDir   = flag.String("cache-dir", "", "on-disk result cache directory (empty = no caching)")
		timeout    = flag.Duration("timeout", 0, "overall run deadline (0 = none)")
		taskTO     = flag.Duration("task-timeout", 0, "replay deadline (0 = none)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on every exit path)")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	fail(err)
	profStop = stopProf
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout, errors.New("-timeout exceeded"))
		defer cancel()
	}

	kind, err := frontend.ParsePolicy(*policy)
	fail(err)
	cfg := frontend.DefaultConfig()
	cfg.ICache = frontend.ICacheConfig{SizeBytes: *icacheKB * 1024, BlockBytes: *block, Ways: *ways}
	cfg.BTB = frontend.BTBConfig{Entries: *btbEntries, Ways: *btbWays}
	fail(cfg.Validate())

	var observe obs.Observer
	if *progress {
		observe = obs.NewProgress(os.Stderr, 500*time.Millisecond)
	}

	// -analyze profiles the accesses tapped off the simulator. fo is the
	// one-lane simulator, nil when the result cache answered.
	var log *frontend.AccessLog
	if *analyze {
		log = new(frontend.AccessLog)
	}
	var name string
	var fo *frontend.FanOut
	var res frontend.Result
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		fail(err)
		defer f.Close()
		r, err := trace.NewReader(f)
		fail(err)
		recs, err := r.ReadAll()
		fail(err)
		name = r.Header().Name
		total, err := frontend.CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
		fail(err)
		fo = newFanOut(cfg, kind, cfg.WarmupFor(total), log)
		for _, rec := range recs {
			fo.Process(rec)
		}
		res = fo.Results()[0]

	default:
		spec, err := workload.Find(*wlName)
		fail(err)
		name = spec.Name
		target := spec.DefaultInstructions
		if *instrs > 0 {
			target = *instrs
		}
		// The result cache can answer the plain statistics run; outputs
		// that need live simulator state (-heatmap, -pgm, -analyze) still
		// simulate.
		var cache *resultcache.Cache
		var cacheKey resultcache.Key
		if *cacheDir != "" && !*heatmap && *pgm == "" && !*analyze {
			cache, err = resultcache.Open(*cacheDir)
			fail(err)
			cacheKey, err = resultcache.KeyFor(spec, cfg, kind, 1, target)
			fail(err)
			if cached, ok := cache.Get(cacheKey); ok && cached.Policy == kind {
				res = cached
				fmt.Fprintf(os.Stderr, "ghrpsim: result loaded from cache %s\n", cache.Dir())
				break
			}
		}
		prog, err := spec.Generate()
		fail(err)
		// The replay deadline covers the stream, which polls the context
		// through its progress hook.
		tctx := ctx
		if *taskTO > 0 {
			var cancel context.CancelFunc
			tctx, cancel = context.WithTimeoutCause(ctx, *taskTO, errors.New("-task-timeout exceeded"))
			defer cancel()
		}
		start := time.Now()
		if observe != nil {
			observe(obs.Event{Kind: obs.RunStart, Workloads: 1, Policies: 1})
			observe(obs.Event{Kind: obs.WorkloadStart, Workload: name, Workloads: 1, Policies: 1})
		}
		fo = newFanOut(cfg, kind, frontend.WarmupFromStream, log)
		results, err := fo.StreamProgram(prog, 1, target, frontend.StreamOptions{
			Progress: func(records, instructions uint64) error {
				if err := tctx.Err(); err != nil {
					return err
				}
				if observe != nil {
					observe(obs.Event{Kind: obs.Tick, Workload: name, Policy: kind.String(),
						Records: records, Instructions: instructions, Elapsed: time.Since(start)})
				}
				return nil
			},
		})
		fail(causeOf(tctx, err))
		res = results[0]
		if observe != nil {
			observe(obs.Event{Kind: obs.PolicyDone, Workload: name, Policy: kind.String(),
				Records: res.Records, Instructions: res.TotalInstructions, Elapsed: time.Since(start),
				CacheMiss: cache != nil})
			observe(obs.Event{Kind: obs.WorkloadDone, Workload: name, Workloads: 1, Elapsed: time.Since(start)})
			observe(obs.Event{Kind: obs.RunDone, Workloads: 1, Elapsed: time.Since(start)})
		}
		if cache != nil {
			fail(cache.Put(cacheKey, res))
		}
	}

	fmt.Printf("workload        %s\n", name)
	fmt.Printf("policy          %s\n", kind)
	fmt.Printf("config          %s I-cache, %s BTB\n", cfg.ICache, cfg.BTB)
	fmt.Printf("instructions    %d total, %d counted after warm-up\n", res.TotalInstructions, res.CountedInstrs)
	fmt.Printf("branch records  %d\n", res.Records)
	fmt.Printf("I-cache         %d accesses, %d hits, %d misses, %d bypasses -> %.3f MPKI\n",
		res.ICache.Accesses, res.ICache.Hits, res.ICache.Misses, res.ICache.Bypasses, res.ICacheMPKI())
	fmt.Printf("BTB             %d accesses, %d hits, %d misses -> %.3f MPKI\n",
		res.BTB.Accesses, res.BTB.Hits, res.BTB.Misses, res.BTBMPKI())
	fmt.Printf("branch dir      %.2f%% accuracy, %.3f MPKI\n",
		res.Branch.Accuracy()*100, res.BranchMPKI())
	if fo != nil && fo.GHRP(0) != nil {
		g := fo.GHRP(0)
		dead, lru := g.EvictionBreakdown()
		ps := g.Predictor().Stats()
		fmt.Printf("GHRP            %d dead-predicted evictions, %d LRU evictions\n", dead, lru)
		fmt.Printf("                %d dead / %d live trainings, %d dead / %d live predictions\n",
			ps.DeadTrainings, ps.LiveTrainings, ps.DeadPredictions, ps.LivePredictions)
	}
	if *heatmap {
		fmt.Printf("\nI-cache efficiency heat map (mean %.3f):\n", fo.ICache(0).MeanEfficiency())
		fmt.Print(stats.Heatmap(fo.ICache(0).Efficiency(), 32, 2))
	}
	if *analyze {
		prof, err := analysis.ComputeReuse(log.Blocks, cfg.ICache.Sets(), 2*cfg.ICache.Ways)
		fail(err)
		fmt.Println()
		fmt.Print(prof.Render(cfg.ICache.Ways))
		fmt.Printf("ideal LRU hit rate at %d ways: %.1f%%\n",
			cfg.ICache.Ways, prof.HitRateAtAssociativity(cfg.ICache.Ways)*100)
		pts := analysis.WorkingSetCurve(log.Blocks, []int{1 << 10, 1 << 12, 1 << 14, 1 << 16})
		fmt.Print(analysis.RenderWorkingSet(pts, cfg.ICache.Blocks()))
	}
	if *pgm != "" {
		f, err := os.Create(*pgm)
		fail(err)
		fail(stats.WritePGM(f, fo.ICache(0).Efficiency(), 8))
		fail(f.Close())
		fmt.Printf("wrote %s\n", *pgm)
	}
}

// newFanOut builds the one-lane simulator for kind with the given
// warm-up limit, tracking efficiency for -heatmap and -pgm and tapping
// its accesses into log for -analyze.
func newFanOut(cfg frontend.Config, kind frontend.PolicyKind, warmupLimit uint64, log *frontend.AccessLog) *frontend.FanOut {
	fo, err := frontend.NewFanOut(cfg, []frontend.PolicyKind{kind}, warmupLimit)
	fail(err)
	fo.TrackEfficiency()
	fo.TapAccesses(log)
	return fo
}

// causeOf maps a context-abort error to that context's cause, so an
// expired -timeout or -task-timeout prints its explanatory error
// instead of a bare "context deadline exceeded".
func causeOf(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// profStop flushes the pprof profiles; exit routes every abnormal
// termination through it so profiles survive fail() aborts (os.Exit
// skips deferred calls).
var profStop = func() {}

func exit(code int) {
	profStop()
	os.Exit(code)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghrpsim:", err)
		exit(1)
	}
}
