// Command bench measures the fused fan-out replay against the
// per-policy baseline it replaced, and emits the comparison as JSON
// (the numbers recorded in BENCH_PR6.json).
//
// Both sides simulate the identical suite under the identical policy
// roster with the same worker pool: the baseline executes each
// workload's program once per policy, the fused side once with every
// policy lane driven in lockstep. Program generation and the counting
// pre-pass (which derives each workload's warm-up window) happen before
// the replay phases; counting is timed as its own reported phase, so
// neither replay number is inflated by it. Each phase can be repeated
// (-repeat) and the best run reported, so recorded numbers are not
// single-sample noise. The fused results are asserted bit-identical to
// the baseline's before any number is reported — a benchmark of a
// divergent fast path would be meaningless.
//
// Usage:
//
//	bench [-n workloads] [-scale f] [-parallel n] [-extended]
//	      [-repeat n] [-matrix] [-out FILE]
//
// With -out the JSON report is written to FILE; it always goes to
// stdout. -matrix sweeps roster {paper, extended} x parallelism {1, 2,
// 4} x scale {scale/3, scale} and emits one cell per combination.
// policy_records sums the records actually delivered to every policy
// lane (from the per-lane Results), so records_per_sec is comparable
// across sides; allocs_per_record is heap allocations per policy record
// during the phase, taken from runtime.MemStats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/workload"
)

type options struct {
	N        int
	Scale    float64
	Parallel int
	Extended bool
	Repeat   int
	Matrix   bool
	Out      string
}

func (o options) validate() error {
	if o.N <= 0 {
		return fmt.Errorf("bench: -n %d must be positive (a zero-workload benchmark measures nothing)", o.N)
	}
	if o.Scale <= 0 || math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		return fmt.Errorf("bench: -scale %v must be a positive finite factor (zero yields an instruction target of 0)", o.Scale)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("bench: -parallel %d must be >= 0", o.Parallel)
	}
	if o.Repeat <= 0 {
		return fmt.Errorf("bench: -repeat %d must be positive", o.Repeat)
	}
	return nil
}

type phaseReport struct {
	WallSeconds     float64 `json:"wall_seconds"`
	PolicyRecords   uint64  `json:"policy_records"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

type report struct {
	Roster      string      `json:"roster"`
	Workloads   int         `json:"workloads"`
	Scale       float64     `json:"scale"`
	Policies    []string    `json:"policies"`
	Parallelism int         `json:"parallelism"`
	Repeat      int         `json:"repeat"`
	Counting    phaseReport `json:"counting"`
	Baseline    phaseReport `json:"baseline"`
	Fused       phaseReport `json:"fused"`
	Speedup     float64     `json:"speedup"`
}

type matrixReport struct {
	Repeat int      `json:"repeat"`
	Cells  []report `json:"cells"`
}

func main() {
	var o options
	flag.IntVar(&o.N, "n", 12, "number of suite workloads")
	flag.Float64Var(&o.Scale, "scale", 0.2, "instruction budget scale factor")
	flag.IntVar(&o.Parallel, "parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	flag.BoolVar(&o.Extended, "extended", false, "bench the extended eight-policy roster instead of the paper's five")
	flag.IntVar(&o.Repeat, "repeat", 1, "repetitions per phase; the best run is reported")
	flag.BoolVar(&o.Matrix, "matrix", false, "sweep roster x parallelism x scale and report one cell each")
	flag.StringVar(&o.Out, "out", "", "also write the JSON report to this file")
	distMode := flag.Bool("dist", false, "benchmark the distributed coordinator (workers x suite matrix) instead of the replay engine")
	distWorkerCmd := flag.String("dist-worker-cmd", "ghrpd", "worker daemon binary spawned by -dist (resolved via PATH)")
	distGenN := flag.Int("dist-gen-n", 10000, "generated-suite size for the -dist matrix")
	prof := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	if *distMode {
		d := distOptions{
			WorkerCmd:  *distWorkerCmd,
			Workers:    []int{1, 2, 4},
			GenN:       *distGenN,
			FixedScale: 0.01,
			GenScale:   0.001,
			Out:        o.Out,
		}
		if err := runDist(d, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *prof != "" {
		f, err := os.Create(*prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(o, os.Stdout); err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the configured benchmark and writes the JSON report to
// stdout (and o.Out when set). Split from main so tests can drive the
// whole harness in-process.
func run(o options, stdout io.Writer) error {
	if err := o.validate(); err != nil {
		return err
	}
	var blob []byte
	if o.Matrix {
		mat := matrixReport{Repeat: o.Repeat}
		for _, extended := range []bool{false, true} {
			for _, par := range []int{1, 2, 4} {
				for _, scale := range []float64{o.Scale / 3, o.Scale} {
					cell := o
					cell.Extended = extended
					cell.Parallel = par
					cell.Scale = scale
					rep, err := runCell(cell)
					if err != nil {
						return err
					}
					mat.Cells = append(mat.Cells, rep)
				}
			}
		}
		var err error
		blob, err = json.MarshalIndent(mat, "", "\t")
		if err != nil {
			return err
		}
	} else {
		rep, err := runCell(o)
		if err != nil {
			return err
		}
		blob, err = json.MarshalIndent(rep, "", "\t")
		if err != nil {
			return err
		}
	}
	blob = append(blob, '\n')
	if _, err := stdout.Write(blob); err != nil {
		return err
	}
	if o.Out != "" {
		return os.WriteFile(o.Out, blob, 0o644)
	}
	return nil
}

// runCell benchmarks one (roster, parallelism, scale) combination.
func runCell(o options) (report, error) {
	kinds := frontend.PaperPolicies()
	roster := "paper"
	if o.Extended {
		kinds = frontend.ExtendedPolicies()
		roster = "extended"
	}
	if len(kinds) == 0 {
		return report{}, fmt.Errorf("bench: empty policy roster")
	}
	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := frontend.DefaultConfig()
	specs := workload.SuiteN(o.N)

	// Generate programs and targets up front, outside all timed phases.
	progs := make([]*workload.Program, len(specs))
	targets := make([]uint64, len(specs))
	for wi, spec := range specs {
		prog, err := spec.Generate()
		if err != nil {
			return report{}, err
		}
		progs[wi] = prog
		targets[wi] = uint64(float64(spec.DefaultInstructions) * o.Scale)
		if targets[wi] == 0 {
			return report{}, fmt.Errorf("bench: scale %v yields a zero instruction target for %s", o.Scale, spec.Name)
		}
	}

	// Counting phase: one fetch-reconstruction pass per workload derives
	// the instruction total (and from it the warm-up window) that both
	// replay phases consume. The real scheduler memoizes these counts in
	// its result cache, so neither replay phase re-counts inside its
	// measured window; the pass is timed as its own phase instead.
	warms := make([]uint64, len(specs))
	recs := make([]uint64, len(specs))
	counting, _, err := timed(workers, len(specs), o.Repeat, func(wi int) ([]frontend.Result, error) {
		total, nrec, err := frontend.CountProgram(cfg, progs[wi], 1, targets[wi], frontend.StreamOptions{})
		if err != nil {
			return nil, err
		}
		warms[wi] = cfg.WarmupFor(total)
		recs[wi] = nrec
		return nil, nil
	})
	if err != nil {
		return report{}, err
	}
	var countRecords uint64
	for _, r := range recs {
		countRecords += r
	}
	counting.finish(countRecords)

	// The baseline runs N one-lane fan-outs per workload, executing the
	// program once per policy.
	baseline, baseRes, err := timed(workers, len(specs), o.Repeat, func(wi int) ([]frontend.Result, error) {
		results := make([]frontend.Result, len(kinds))
		for pi, kind := range kinds {
			var err error
			results[pi], err = frontend.SimulateProgramStream(cfg, kind, progs[wi], 1, targets[wi], warms[wi], frontend.StreamOptions{})
			if err != nil {
				return nil, err
			}
		}
		return results, nil
	})
	if err != nil {
		return report{}, err
	}
	baseline.finish(policyRecords(baseRes))

	// Mirror the scheduler's surplus rule: workers beyond one per
	// workload split lane replay inside each fused task.
	splitEach := 1
	if len(specs) < workers {
		splitEach = workers / len(specs)
	}
	fused, fusedRes, err := timed(workers, len(specs), o.Repeat, func(wi int) ([]frontend.Result, error) {
		fo, err := frontend.NewFanOut(cfg, kinds, warms[wi])
		if err != nil {
			return nil, err
		}
		return fo.StreamProgram(progs[wi], 1, targets[wi], splitEach, frontend.StreamOptions{})
	})
	if err != nil {
		return report{}, err
	}
	fused.finish(policyRecords(fusedRes))

	if err := verifyIdentical(specs, kinds, baseRes, fusedRes); err != nil {
		return report{}, err
	}

	rep := report{
		Roster:      roster,
		Workloads:   len(specs),
		Scale:       o.Scale,
		Parallelism: workers,
		Repeat:      o.Repeat,
		Counting:    counting.phaseReport,
		Baseline:    baseline.phaseReport,
		Fused:       fused.phaseReport,
		Speedup:     baseline.WallSeconds / fused.WallSeconds,
	}
	for _, k := range kinds {
		rep.Policies = append(rep.Policies, k.String())
	}
	return rep, nil
}

// policyRecords sums the records actually delivered to every policy
// lane across all workloads — derived from the per-lane Results rather
// than multiplying one workload's count by the roster size.
func policyRecords(results [][]frontend.Result) uint64 {
	var total uint64
	for _, rs := range results {
		for _, r := range rs {
			total += r.Records
		}
	}
	return total
}

// verifyIdentical asserts the fused results are bit-identical to the
// baseline's, per workload and policy.
func verifyIdentical(specs []workload.Spec, kinds []frontend.PolicyKind, base, fused [][]frontend.Result) error {
	if len(base) != len(fused) {
		return fmt.Errorf("bench: baseline has %d workload results, fused %d", len(base), len(fused))
	}
	for wi := range base {
		if len(base[wi]) != len(kinds) || len(fused[wi]) != len(kinds) {
			return fmt.Errorf("bench: workload %s returned %d baseline / %d fused results for %d policies",
				specs[wi].Name, len(base[wi]), len(fused[wi]), len(kinds))
		}
		for pi := range kinds {
			if fused[wi][pi] != base[wi][pi] {
				return fmt.Errorf("bench: fused replay diverged from baseline on %s/%v", specs[wi].Name, kinds[pi])
			}
		}
	}
	return nil
}

// phaseRun is one phase's best-of-N measurement; finish derives the
// throughput fields once the caller knows the phase's record total.
type phaseRun struct {
	phaseReport
	allocs uint64
}

func (p *phaseRun) finish(policyRecords uint64) {
	p.PolicyRecords = policyRecords
	if p.WallSeconds > 0 {
		p.RecordsPerSec = float64(policyRecords) / p.WallSeconds
	}
	if policyRecords > 0 {
		p.AllocsPerRecord = float64(p.allocs) / float64(policyRecords)
	}
}

// timed runs one task per suite entry across a worker pool, repeat
// times, and reports the fastest run's wall time and allocation count.
// The returned results are from the last run (all runs produce
// identical results for a deterministic task).
func timed(workers, n, repeat int, task func(wi int) ([]frontend.Result, error)) (phaseRun, [][]frontend.Result, error) {
	var best phaseRun
	var results [][]frontend.Result
	for rep := 0; rep < repeat; rep++ {
		results = make([][]frontend.Result, n)
		errs := make([]error, n)
		tasks := make(chan int, n)
		for wi := 0; wi < n; wi++ {
			tasks <- wi
		}
		close(tasks)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for wi := range tasks {
					results[wi], errs[wi] = task(wi)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		for wi := range errs {
			if errs[wi] != nil {
				return phaseRun{}, nil, errs[wi]
			}
		}
		if rep == 0 || wall.Seconds() < best.WallSeconds {
			best.WallSeconds = wall.Seconds()
			best.allocs = after.Mallocs - before.Mallocs
		}
	}
	return best, results, nil
}
