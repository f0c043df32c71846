package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// bufferedResult replays a buffered record stream under one policy the
// obviously-correct way: count its instructions, then feed every record
// to a one-lane fan-out built with the warm-up window that count
// implies.
func bufferedResult(t *testing.T, cfg frontend.Config, kind frontend.PolicyKind, recs []trace.Record) frontend.Result {
	t.Helper()
	total, err := frontend.CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	fo, err := frontend.NewFanOut(cfg, []frontend.PolicyKind{kind}, cfg.WarmupFor(total))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		fo.Process(r)
	}
	return fo.Results()[0]
}

// serialReference simulates opts the slow, obviously-correct way: one
// buffered GenerateRecords + bufferedResult pass per (workload, policy)
// cell, strictly in order, no scheduler involved.
func serialReference(t *testing.T, opts Options) [][]frontend.Result {
	t.Helper()
	opts, err := opts.prepare()
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.Materialize(opts.Source)
	out := make([][]frontend.Result, len(specs))
	for wi, spec := range specs {
		prog, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := frontend.GenerateRecords(prog, opts.ExecSeed, targetFor(spec, opts.Scale))
		if err != nil {
			t.Fatal(err)
		}
		out[wi] = make([]frontend.Result, len(opts.Policies))
		for pi, k := range opts.Policies {
			out[wi][pi] = bufferedResult(t, opts.Config, k, recs)
		}
	}
	return out
}

// requireMatchesReference asserts m is bit-identical to the serial
// reference results, including the derived MPKI vectors.
func requireMatchesReference(t *testing.T, m *Measurements, ref [][]frontend.Result) {
	t.Helper()
	for wi := range ref {
		for pi, k := range m.Policies {
			want := ref[wi][pi]
			if got := m.Raw[wi].Results[pi]; got != want {
				t.Errorf("%s/%v: diverged from serial reference\n got %+v\nwant %+v",
					m.Specs[wi].Name, k, got, want)
			}
			if m.ICacheMPKI[k][wi] != want.ICacheMPKI() || m.BTBMPKI[k][wi] != want.BTBMPKI() {
				t.Errorf("%s/%v: MPKI vectors diverged", m.Specs[wi].Name, k)
			}
		}
		if m.BranchMPKI[wi] != ref[wi][0].BranchMPKI() {
			t.Errorf("%s: branch MPKI diverged", m.Specs[wi].Name)
		}
	}
}

// The fused fan-out scheduler must produce bit-identical Measurements
// to the serial reference at Parallelism 1, at GOMAXPROCS, and above the
// suite's workload count, where a run starts one worker per workload.
func TestSchedulerMatchesSerialReference(t *testing.T) {
	ref := serialReference(t, tinyOptions())
	for _, par := range []int{1, runtime.GOMAXPROCS(0), len(tinyOptions().Workloads) + 3} {
		opts := tinyOptions()
		opts.Parallelism = par
		m, err := Run(opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		requireMatchesReference(t, m, ref)
	}

	// A grid mixing configurations, wrong-path fetch off and on among
	// them, must give every variant exactly the measurements of its own
	// run.
	vs := mixedGrid()
	want := make([]*Measurements, len(vs))
	for v, va := range vs {
		opts := tinyOptions()
		opts.Config, opts.Policies = va.Config, va.Policies
		m, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = m
	}
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		opts := tinyOptions()
		opts.Parallelism = par
		ms, err := RunGrid(context.Background(), opts, vs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for v := range vs {
			requireSameMeasurements(t, fmt.Sprintf("parallelism %d, variant %d %q", par, v, vs[v].Name), ms[v], want[v])
		}
	}
}

// A grid mixing wrong-path fetch off and on generates each workload's
// program once and streams it once, through one fan-out of every cell:
// a task replays the program it holds, so the name given to a kept
// program survives the task (generating into the worker's Generator
// again would reset it), and the results still equal a plain grid run.
// A cell that several variants list runs once.
func TestGridGeneratesEachProgramOnce(t *testing.T) {
	opts, err := tinyOptions().prepare()
	if err != nil {
		t.Fatal(err)
	}
	// Every record ticks, so each stream of a program ticks once with
	// Records 1.
	opts.ProgressEvery = 1
	vs := append([]Variant{{}}, Ablations(frontend.DefaultConfig())[3].Variants...) // wrong-path handling
	done, streams := 0, make([]int, len(opts.Workloads))
	r, err := newRunState(opts, vs, func(e obs.Event) {
		switch {
		case e.Kind == obs.PolicyDone:
			done++
		case e.Kind == obs.Tick && e.Records == 1:
			streams[e.WorkloadIndex]++
			if e.Policy != "fanout(7)" {
				t.Errorf("%s: streamed through %s, want one fan-out of all 7 cells", e.Workload, e.Policy)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// "no-wrong-path" is the paper default's GHRP cell.
	if n := len(r.grid.cells); n != 7 {
		t.Fatalf("grid has %d cells, want 7", n)
	}
	var sw simWorker
	sw.useCells(r.grid.cells)
	ctx := context.Background()
	for wi, spec := range r.outs[0].Specs {
		prog, err := sw.gen.Generate(spec.Profile)
		if err != nil {
			t.Fatal(err)
		}
		prog.Name = "kept"
		r.states[wi].prog = prog
		if err := r.runTaskSafe(ctx, task{wi}, &sw); err != nil {
			t.Fatal(err)
		}
		if prog.Name != "kept" {
			t.Errorf("%s: program generated again", spec.Name)
		}
		if streams[wi] != 1 {
			t.Errorf("%s: program streamed %d times, want once", spec.Name, streams[wi])
		}
		r.finishTask(ctx, wi, nil)
	}
	if want := 7 * len(r.states); done != want {
		t.Errorf("%d cells simulated, want %d", done, want)
	}
	want, err := RunGrid(ctx, tinyOptions(), vs)
	if err != nil {
		t.Fatal(err)
	}
	for v := range vs {
		requireSameMeasurements(t, vs[v].Name, r.outs[v], want[v])
	}
}

// mixedGrid lists variants that differ in every field a lane reads —
// cache geometry, SDBP's sampler, GHRP's table count, prefetching,
// wrong-path fetch and its recovery — with cells that several variants
// share.
func mixedGrid() []Variant {
	base := frontend.DefaultConfig()
	vs := []Variant{{}, {Policies: frontend.ExtendedPolicies()}}
	vs = append(vs, SweepVariants(base, []frontend.ICacheConfig{
		{SizeBytes: 8 * 1024, BlockBytes: 64, Ways: 4},
		frontend.DefaultICache(),
	})...)
	vs = append(vs, SamplingVariants(base, []int{2, 0})...)
	ablations := Ablations(base)
	vs = append(vs, ablations[4].Variants[:2]...) // GHRP table count
	vs = append(vs, ablations[3].Variants...)     // wrong-path handling
	return append(vs, ablations[5].Variants...)   // prefetching
}

// A grid whose variants need two fronts is rejected, naming the
// variant, before any task runs.
func TestGridRejectsSecondFront(t *testing.T) {
	for _, f := range []struct {
		name   string
		mutate func(*frontend.Config)
	}{
		{"Branch", func(c *frontend.Config) { c.Branch.TableBits = 10 }},
		{"InstrBytes", func(c *frontend.Config) { c.InstrBytes = 8 }},
	} {
		cfg := frontend.DefaultConfig()
		f.mutate(&cfg)
		vs := []Variant{{}, {Name: "other front", Config: cfg}}
		var started atomic.Int32
		opts := tinyOptions()
		opts.Observer = func(e obs.Event) {
			if e.Kind == obs.WorkloadStart {
				started.Add(1)
			}
		}
		ms, err := RunGrid(context.Background(), opts, vs)
		if err == nil || ms != nil {
			t.Fatalf("%s: grid needing two fronts ran", f.name)
		}
		if !strings.Contains(err.Error(), `variant 1 ("other front")`) {
			t.Errorf("%s: error %q does not name the variant", f.name, err)
		}
		if n := started.Load(); n != 0 {
			t.Errorf("%s: %d workloads started before the rejection", f.name, n)
		}
	}
}

// requireSameMeasurements asserts that a grid variant's measurements are
// bit-identical to a RunContext's under the same configuration.
func requireSameMeasurements(t *testing.T, name string, got, want *Measurements) {
	t.Helper()
	if !reflect.DeepEqual(got.Options.Config, want.Options.Config) || !slices.Equal(got.Policies, want.Policies) {
		t.Fatalf("%s: grid ran %v under %+v, want %v under %+v", name, got.Policies, got.Options.Config, want.Policies, want.Options.Config)
	}
	for wi := range want.Raw {
		for pi, k := range want.Policies {
			if g, w := got.Raw[wi].Results[pi], want.Raw[wi].Results[pi]; g != w {
				t.Errorf("%s: %s/%v diverged from its own run\n got %+v\nwant %+v", name, want.Specs[wi].Name, k, g, w)
			}
		}
	}
	for _, k := range want.Policies {
		if !slices.Equal(got.ICacheMPKI[k], want.ICacheMPKI[k]) || !slices.Equal(got.BTBMPKI[k], want.BTBMPKI[k]) {
			t.Errorf("%s: %v MPKI vectors diverged", name, k)
		}
	}
	if !slices.Equal(got.BranchMPKI, want.BranchMPKI) {
		t.Errorf("%s: branch MPKI diverged", name)
	}
}

// mixedFootprintGrid alternates the smallest and largest programs of
// the default footprint sweep (0.25x and 4x), so a worker generates
// programs of very different sizes back to back into one Generator.
func mixedFootprintGrid(n int) workload.SuiteGen {
	return workload.SuiteGen{N: n, FootprintSteps: 2}
}

// Workers generate every program into storage reused across workloads;
// over a grid whose program sizes swing by an order of magnitude from
// one workload to the next, results must stay bit-identical to the
// serial reference.
func TestSchedulerMixedFootprintBitIdentical(t *testing.T) {
	opts := Options{Source: mixedFootprintGrid(10), Scale: 0.01}
	ref := serialReference(t, opts)
	for _, par := range []int{1, 2} {
		opts.Parallelism = par
		m, err := Run(opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		requireMatchesReference(t, m, ref)
	}
}

// A warm-cache rerun must be bit-identical to the cold run, serve every
// cell from the cache, and simulate nothing.
func TestSchedulerWarmCacheBitIdentical(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyOptions()
	opts.Cache = cache

	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(cold.Specs) * len(cold.Policies)
	if cold.Stats.CacheHits != 0 || cold.Stats.CacheMisses != cells {
		t.Fatalf("cold run: %d hits / %d misses, want 0 / %d",
			cold.Stats.CacheHits, cold.Stats.CacheMisses, cells)
	}
	// One result entry per cell and nothing else: the runner memoizes
	// no count.
	want := cells
	if n, err := cache.Len(); err != nil || n != want {
		t.Fatalf("cache holds %d entries (%v), want %d", n, err, want)
	}

	var (
		mu     sync.Mutex
		counts = map[obs.EventKind]int{}
	)
	warmOpts := tinyOptions()
	warmOpts.Cache = cache
	warmOpts.Observer = func(e obs.Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	}
	warm, err := Run(warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.CacheHits != cells || warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits / %d misses, want %d / 0",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, cells)
	}
	if counts[obs.PolicyCached] != cells || counts[obs.PolicyDone] != 0 {
		t.Errorf("warm run events: %d PolicyCached / %d PolicyDone, want %d / 0",
			counts[obs.PolicyCached], counts[obs.PolicyDone], cells)
	}
	if counts[obs.WorkloadDone] != len(cold.Specs) {
		t.Errorf("warm run: %d WorkloadDone, want %d", counts[obs.WorkloadDone], len(cold.Specs))
	}

	// Bit-identical Measurements: raw results, MPKI vectors, branch MPKI.
	ref := make([][]frontend.Result, len(cold.Raw))
	for wi := range cold.Raw {
		ref[wi] = cold.Raw[wi].Results
	}
	requireMatchesReference(t, warm, ref)

	// The cold cached run itself must also match the uncached serial
	// reference: caching must not perturb simulation.
	requireMatchesReference(t, cold, serialReference(t, tinyOptions()))
}

// Cells the result cache answers leave each task its own roster to
// fuse, so a worker's consecutive tasks alternate between resetting its
// fan-out and rebuilding it. Results must stay bit-identical to the
// serial reference either way.
func TestSchedulerPartialCacheHitsBitIdentical(t *testing.T) {
	specs := workload.SuiteN(6)
	const scale = 0.03
	ref := serialReference(t, Options{Workloads: specs, Scale: scale})
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		cache, err := resultcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Prefill LRU and GHRP for workloads 0 and 1, and SRRIP for 3:
		// tasks then fuse rosters of 3, 3, 5, 4, 5 and 5 lanes, so one
		// worker both reuses and rebuilds.
		prefill := []Options{
			{Workloads: specs[:2], Scale: scale, Cache: cache,
				Policies: []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP}},
			{Workloads: specs[3:4], Scale: scale, Cache: cache,
				Policies: []frontend.PolicyKind{frontend.PolicySRRIP}},
		}
		for _, p := range prefill {
			if _, err := Run(p); err != nil {
				t.Fatal(err)
			}
		}
		m, err := Run(Options{Workloads: specs, Scale: scale, Cache: cache, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if m.Stats.CacheHits != 5 {
			t.Errorf("parallelism %d: %d cache hits, want 5", par, m.Stats.CacheHits)
		}
		requireMatchesReference(t, m, ref)
	}
}

// Cache entries must be shared across entry points: a sweep over
// configurations including the default one reuses the main run's cells,
// and a repeated sweep is fully cached.
func TestSweepReusesCachedCells(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Workloads: workload.SuiteN(3),
		Scale:     0.02,
		Policies:  []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP},
		Cache:     cache,
	}
	// Main suite run populates the default-config cells.
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	after, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	configs := []frontend.ICacheConfig{
		frontend.DefaultICache(), // identical to the main run's geometry
		{SizeBytes: 8 * 1024, BlockBytes: 64, Ways: 4},
	}
	sweep := func() []SweepRow {
		t.Helper()
		ms, err := RunGrid(context.Background(), base, SweepVariants(frontend.Config{}, configs))
		if err != nil {
			t.Fatal(err)
		}
		return SweepRows(ms)
	}
	rows1 := sweep()
	grew, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	if want := after + len(base.Workloads)*len(base.Policies); grew != want {
		t.Errorf("sweep grew cache to %d entries, want %d (default-config cells reused)", grew, want)
	}
	rows2 := sweep()
	if n, err := cache.Len(); err != nil || n != grew {
		t.Errorf("repeat sweep grew cache to %d (%v), want %d", n, err, grew)
	}
	for i := range rows1 {
		for _, k := range base.Policies {
			if rows1[i].Mean[k] != rows2[i].Mean[k] {
				t.Errorf("config %v policy %v: cached sweep diverged: %v vs %v",
					rows1[i].Config, k, rows1[i].Mean[k], rows2[i].Mean[k])
			}
		}
	}
}

// Headroom shares the runner's cache entries: a main run followed by
// computeHeadroom adds no new cache entries, and the report matches an
// uncached one bit for bit.
func TestHeadroomSharesCache(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workloads: workload.SuiteN(3), Scale: 0.05, Cache: cache}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	n0, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	cached, err := computeHeadroom(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if n1, err := cache.Len(); err != nil || n1 != n0 {
		t.Errorf("headroom grew cache from %d to %d (%v); every policy cell should hit", n0, n1, err)
	}
	plain, err := computeHeadroom(context.Background(), Options{Workloads: workload.SuiteN(3), Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if cached.LRUMean != plain.LRUMean || cached.OPTMean != plain.OPTMean {
		t.Errorf("cached headroom diverged: LRU %v vs %v, OPT %v vs %v",
			cached.LRUMean, plain.LRUMean, cached.OPTMean, plain.OPTMean)
	}
	for i := range plain.Rows {
		if cached.Rows[i] != plain.Rows[i] {
			t.Errorf("row %d diverged: %+v vs %+v", i, cached.Rows[i], plain.Rows[i])
		}
	}
}

// The interop holds in the other direction too: result entries written
// by the buffered headroom path must be hit by the fused scheduler, so
// a headroom-first workflow never replays cells the bound computation
// already simulated.
func TestRunReusesHeadroomCache(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workloads: workload.SuiteN(3), Scale: 0.05, Cache: cache}
	if _, err := computeHeadroom(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	n0, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := len(m.Specs) * len(m.Policies)
	if m.Stats.CacheHits != cells || m.Stats.CacheMisses != 0 {
		t.Errorf("fused run after headroom: %d hits / %d misses, want %d / 0",
			m.Stats.CacheHits, m.Stats.CacheMisses, cells)
	}
	// A fully-warm run simulates nothing, so it writes nothing.
	if n1, err := cache.Len(); err != nil || n1 != n0 {
		t.Errorf("fused run grew cache from %d to %d (%v); every cell should hit", n0, n1, err)
	}
	plain, err := Run(Options{Workloads: workload.SuiteN(3), Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([][]frontend.Result, len(plain.Raw))
	for wi := range plain.Raw {
		ref[wi] = plain.Raw[wi].Results
	}
	requireMatchesReference(t, m, ref)
}

// A failing workload must not poison its siblings, and its error must
// carry the workload name exactly once even with several policy tasks.
func TestSchedulerPartialFailure(t *testing.T) {
	good := workload.SuiteN(2)
	opts := Options{
		Workloads: []workload.Spec{good[0], badSpec("bad-mid"), good[1]},
		Scale:     0.02,
	}
	_, err := Run(opts)
	if err == nil {
		t.Fatal("failing workload reported no error")
	}
}

// runPerWorkload reimplements the pre-fusion scheduler — one goroutine
// per workload, its policies replayed strictly serially, each replay
// re-executing the program — as the benchmark baseline the fused
// scheduler must beat. It carries the same per-replay overheads
// (progress callbacks, obs events into a collector) so the two
// benchmarks differ only in execution strategy.
func runPerWorkload(b *testing.B, opts Options) {
	b.Helper()
	ctx := context.Background()
	opts, err := opts.prepare()
	if err != nil {
		b.Fatal(err)
	}
	observe := obs.NewCollector().Observe
	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Parallelism)
	for wi := range opts.Workloads {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec := opts.Workloads[wi]
			start := time.Now()
			observe(obs.Event{Kind: obs.WorkloadStart, Workload: spec.Name, WorkloadIndex: wi})
			prog, err := spec.Generate()
			if err != nil {
				b.Error(err)
				return
			}
			target := targetFor(spec, opts.Scale)
			counting := frontend.StreamOptions{
				ProgressEvery: opts.ProgressEvery,
				Progress:      func(records, instructions uint64) error { return ctx.Err() },
			}
			total, _, err := frontend.CountProgram(opts.Config, prog, opts.ExecSeed, target, counting)
			if err != nil {
				b.Error(err)
				return
			}
			warm := opts.Config.WarmupFor(total)
			for pi, kind := range opts.Policies {
				pstart := time.Now()
				so := frontend.StreamOptions{
					ProgressEvery: opts.ProgressEvery,
					Progress: func(records, instructions uint64) error {
						if err := ctx.Err(); err != nil {
							return err
						}
						observe(obs.Event{Kind: obs.Tick, Workload: spec.Name, WorkloadIndex: wi,
							Policy: kind.String(), PolicyIndex: pi,
							Records: records, Instructions: instructions, Elapsed: time.Since(pstart)})
						return nil
					},
				}
				res, err := frontend.SimulateProgramStream(opts.Config, kind, prog, opts.ExecSeed, target, warm, so)
				if err != nil {
					b.Error(err)
					return
				}
				observe(obs.Event{Kind: obs.PolicyDone, Workload: spec.Name, WorkloadIndex: wi,
					Policy: kind.String(), PolicyIndex: pi,
					Records: res.Records, Instructions: res.TotalInstructions, Elapsed: time.Since(pstart)})
			}
			observe(obs.Event{Kind: obs.WorkloadDone, Workload: spec.Name, WorkloadIndex: wi, Elapsed: time.Since(start)})
		}(wi)
	}
	wg.Wait()
}

// benchOptions is a deliberately skewed suite — few workloads, one of
// them much longer — where the per-policy baseline pays N+1 executor
// passes over the long workload while the fused scheduler pays one.
func benchOptions() Options {
	specs := workload.SuiteN(6)
	specs[0].DefaultInstructions *= 8
	return Options{Workloads: specs, Scale: 0.1}
}

func BenchmarkSchedulerFused(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulerPerWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runPerWorkload(b, benchOptions())
	}
}
