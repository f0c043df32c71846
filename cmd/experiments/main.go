// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic workload suite. Each experiment
// prints the corresponding rows or series; `-run all` (the default)
// produces the full report recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-run all|table1|fig1|fig2|fig3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|headline|headroom|extended|ablations]
//	            [-n workloads] [-scale f] [-parallel n] [-progress] [-cache-dir DIR]
//	            [-timeout d] [-task-timeout d] [-stall-timeout d] [-retries n] [-keep-going]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Every selected section that simulates the suite adds its
// configurations to one experiment grid (sim.RunGrid): a cell that
// several sections share runs once, and each workload's program is
// generated once and streamed once, through one fan-out of every cell.
// Only the Fig. 1 and Fig. 5 heat maps simulate on their own.
//
// Interrupting a run (SIGINT/SIGTERM) cancels in-flight simulations
// promptly; -progress streams live throughput to stderr and prints a
// per-policy wall-time summary after the grid run. -cache-dir attaches
// an on-disk result cache: every (workload, policy, config) cell is
// stored after simulation and reloaded on later runs, so a repeated
// invocation replays nothing.
//
// Failure semantics: -timeout bounds the whole invocation (a run cut
// short prints no figure and exits nonzero; with -keep-going it first
// prints the run stats of the cells that completed); -task-timeout and
// -stall-timeout bound one workload task's wall time and progress gaps
// (all its policies and headroom's OPT pass); transient failures are
// retried up to -retries times; -keep-going finishes the suite past
// failing cells, reporting them on stderr and computing every figure
// over the surviving workloads.
//
// -cpuprofile and -memprofile write pprof profiles; they are flushed on
// every exit path, including fail() aborts and a -timeout partial exit,
// so a run cut short by its deadline still yields a readable profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/prof"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

// experimentIDs are the -run values main dispatches on besides "all",
// which runs every one of them.
var experimentIDs = []string{
	"table1", "fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"headline", "headroom", "extended", "ablations",
}

func main() {
	var (
		run      = flag.String("run", "all", "experiment id or 'all'")
		n        = flag.Int("n", workload.SuiteSize, "number of suite workloads")
		scale    = flag.Float64("scale", 1.0, "instruction budget scale factor")
		parallel = flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "stream live progress and a throughput summary to stderr")
		cacheDir = flag.String("cache-dir", "", "on-disk result cache directory (empty = no caching)")
		timeout  = flag.Duration("timeout", 0, "overall run deadline (0 = none); an expired run prints no figure and exits nonzero")
		taskTO   = flag.Duration("task-timeout", 0, "per-workload task deadline: every policy's replay and headroom's OPT pass (0 = none)")
		stallTO  = flag.Duration("stall-timeout", 0, "fail a task making no progress for this long (0 = none)")
		retries  = flag.Int("retries", sim.DefaultMaxRetries, "retries per task for transient failures (0 = none)")
		keepOn   = flag.Bool("keep-going", false, "complete the suite past failing cells; figures cover the surviving workloads")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (flushed on every exit path)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *run != "all" && !slices.Contains(experimentIDs, *run) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -run %q; valid ids: all, %s\n", *run, strings.Join(experimentIDs, ", "))
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	fail(err)
	profStop = stopProf
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	maxRetries := *retries
	if maxRetries <= 0 {
		maxRetries = -1 // Options.MaxRetries 0 means "default"; negative disables
	}
	opts := sim.Options{
		Workloads:    workload.SuiteN(*n),
		Scale:        *scale,
		Parallelism:  *parallel,
		TaskTimeout:  *taskTO,
		StallTimeout: *stallTO,
		MaxRetries:   maxRetries,
		KeepGoing:    *keepOn,
	}
	if *cacheDir != "" {
		cache, err := resultcache.Open(*cacheDir)
		fail(err)
		opts.Cache = cache
	}
	if *progress {
		opts.Observer = obs.NewProgress(os.Stderr, 500*time.Millisecond)
	}
	want := func(id string) bool { return *run == "all" || *run == id }
	hadFailures := false
	start := time.Now()
	fmt.Printf("# GHRP reproduction experiments (%d workloads, scale %.2f)\n\n", len(opts.Workloads), *scale)

	if want("table1") {
		fmt.Println("## Table I")
		fmt.Println(sim.RenderTable1(frontend.DefaultICache(), core.Config{}))
	}

	// Each wanted section adds its variants to the one grid and keeps
	// the window of the grid's measurements that holds them.
	base := frontend.DefaultConfig()
	var variants []sim.Variant
	add := func(vs ...sim.Variant) func([]*sim.Measurements) []*sim.Measurements {
		lo := len(variants)
		variants = append(variants, vs...)
		hi := len(variants)
		return func(ms []*sim.Measurements) []*sim.Measurements { return ms[lo:hi] }
	}
	// Most figures share one default-configuration variant.
	var mainM, fig2M, fig7M, headroomM, extendedM func([]*sim.Measurements) []*sim.Measurements
	if slices.ContainsFunc([]string{"fig3", "fig6", "fig8", "fig9", "fig10", "fig11", "headline", "fig1", "fig5"}, want) {
		mainM = add(sim.Variant{})
	}
	if want("fig2") {
		fig2M = add(sim.SamplingVariants(base, []int{2, 8, 32, 0})...)
	}
	if want("fig7") {
		fig7M = add(sim.SweepVariants(base, sim.Fig7Configs())...)
	}
	if want("headroom") {
		headroomM = add(sim.HeadroomVariant(sim.Variant{}))
	}
	if want("extended") {
		extendedM = add(sim.Variant{Policies: frontend.ExtendedPolicies()})
	}
	var ablations []sim.Ablation
	var ablationMs []func([]*sim.Measurements) []*sim.Measurements
	if want("ablations") {
		ablations = sim.Ablations(base)
		for _, a := range ablations {
			ablationMs = append(ablationMs, add(a.Variants...))
		}
	}

	var ms []*sim.Measurements
	if len(variants) > 0 {
		var err error
		ms, err = sim.RunGrid(ctx, opts, variants)
		if err != nil && ms != nil {
			// Keep-going run cut short by cancellation or -timeout: print
			// the run stats of the cells that completed, no figure, and
			// exit nonzero.
			fmt.Fprintln(os.Stderr, "experiments:", err)
			fmt.Fprint(os.Stderr, ms[0].Stats.Render())
			fmt.Fprintln(os.Stderr, "experiments: run incomplete; stats above, no figures printed")
			exit(1)
		}
		fail(err)
		stats := ms[0].Stats
		if *progress {
			fmt.Fprint(os.Stderr, stats.Render())
		}
		if failed := stats.Failed(); len(failed) > 0 {
			for _, w := range failed {
				fmt.Fprintf(os.Stderr, "experiments: workload %s failed: %v\n", w.Name, w.Err)
			}
			fmt.Fprintf(os.Stderr, "experiments: continuing with %d of %d workloads\n",
				len(ms[0].Specs)-len(failed), len(ms[0].Specs))
			hadFailures = true
		}
	}
	var m *sim.Measurements
	if mainM != nil {
		m = mainM(ms)[0].Completed()
	}

	if want("headline") {
		fmt.Println("## Headline (Section V text)")
		fmt.Println(sim.ComputeHeadline(m, sim.ICache).Render())
		fmt.Println(renderImprovements(m, sim.ICache))
		fmt.Println(sim.ComputeHeadline(m, sim.BTB).Render())
		fmt.Println(renderImprovements(m, sim.BTB))
	}
	if want("fig3") {
		fmt.Println("## Fig. 3 — I-cache S-curve (64KB 8-way 64B)")
		fmt.Println(sim.ComputeSCurve(m, sim.ICache).Render(m.Policies, 24))
	}
	if want("fig6") {
		fmt.Println("## Fig. 6 — I-cache MPKI per benchmark")
		fmt.Println(sim.ComputeBars(m, sim.ICache, 12).Render(m.Policies))
	}
	if want("fig8") {
		fmt.Println("## Fig. 8 — relative difference vs LRU, 95% CI")
		fmt.Println(sim.RenderCI(sim.ComputeCI(m, sim.ICache), sim.ICache))
		fmt.Println(sim.RenderCI(sim.ComputeCI(m, sim.BTB), sim.BTB))
	}
	if want("fig9") {
		fmt.Println("## Fig. 9 — workloads benefited / similar / harmed vs LRU")
		fmt.Println(sim.RenderWinLoss(sim.ComputeWinLoss(m, sim.ICache), sim.ICache, len(m.Specs)))
		fmt.Println(sim.RenderWinLoss(sim.ComputeWinLoss(m, sim.BTB), sim.BTB, len(m.Specs)))
	}
	if want("fig10") {
		fmt.Println("## Fig. 10 — BTB MPKI per benchmark (4096-entry 4-way)")
		fmt.Println(sim.ComputeBars(m, sim.BTB, 12).Render(m.Policies))
	}
	if want("fig11") {
		fmt.Println("## Fig. 11 — BTB S-curve")
		fmt.Println(sim.ComputeSCurve(m, sim.BTB).Render(m.Policies, 24))
	}

	if want("fig1") {
		fmt.Println("## Fig. 1 — I-cache efficiency heat map (16KB 8-way)")
		cfg := frontend.DefaultConfig()
		cfg.ICache = frontend.ICacheConfig{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 8}
		spec := sim.TopPressureSpec(m)
		instrs := uint64(float64(spec.DefaultInstructions) * *scale)
		hs, err := sim.ComputeHeatmaps(cfg, sim.ICache, spec, instrs, m.Policies, 32, 2)
		fail(err)
		fmt.Println(sim.RenderHeatmaps(hs, sim.ICache, spec.Name))
	}
	if want("fig5") {
		fmt.Println("## Fig. 5 — BTB efficiency heat map (256-entry 8-way)")
		cfg := frontend.DefaultConfig()
		cfg.BTB = frontend.BTBConfig{Entries: 256, Ways: 8}
		spec := sim.TopPressureSpec(m)
		instrs := uint64(float64(spec.DefaultInstructions) * *scale)
		hs, err := sim.ComputeHeatmaps(cfg, sim.BTB, spec, instrs, m.Policies, 32, 2)
		fail(err)
		fmt.Println(sim.RenderHeatmaps(hs, sim.BTB, spec.Name))
	}

	if want("fig2") {
		fmt.Println("## Fig. 2 — set-sampling does not generalize (SDBP sampler restriction)")
		fmt.Println(sim.RenderSampling(sim.SamplingRows(fig2M(ms)), frontend.DefaultICache().Sets()))
	}

	if want("fig7") {
		fmt.Println("## Fig. 7 — average I-cache MPKI across configurations")
		fmt.Println(sim.RenderSweep(sim.SweepRows(fig7M(ms)), frontend.PaperPolicies()))
	}

	if want("headroom") {
		fmt.Println("## Headroom vs Belady's OPT (extension beyond the paper)")
		rep, err := sim.Headroom(headroomM(ms)[0])
		fail(err)
		fmt.Println(rep.Render())
	}

	if want("extended") {
		fmt.Println("## Extended policies (FIFO, DIP, SHiP beyond the paper's five)")
		me := extendedM(ms)[0].Completed()
		fmt.Println(sim.ComputeHeadline(me, sim.ICache).Render())
		fmt.Println(sim.ComputeHeadline(me, sim.BTB).Render())
	}

	if want("ablations") {
		fmt.Println("## Ablations (design choices from Section III)")
		for i, a := range ablations {
			fmt.Println(sim.RenderAblation(a.Title, a.Rows(ablationMs[i](ms))))
		}
	}

	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
	if hadFailures {
		fmt.Fprintln(os.Stderr, "experiments: some workloads failed; results cover the survivors")
		exit(1)
	}
}

// profStop flushes the pprof profiles; exit routes every abnormal
// termination through it so profiles survive fail() and -timeout exits
// (os.Exit skips deferred calls).
var profStop = func() {}

func exit(code int) {
	profStop()
	os.Exit(code)
}

func renderImprovements(m *sim.Measurements, st sim.Structure) string {
	impr := sim.GHRPImprovements(m, st)
	var b strings.Builder
	fmt.Fprintf(&b, "GHRP %s mean-MPKI improvement:", st)
	for _, k := range m.Policies {
		if v, ok := impr[k]; ok {
			fmt.Fprintf(&b, " %.1f%% over %s;", v, k)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		exit(1)
	}
}
