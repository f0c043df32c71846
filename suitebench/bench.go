package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/sim"
)

// minReps is the fewest measured repetitions a run reports.
const minReps = 3

// bench runs one workload at one seed.
type bench struct {
	def  workloadDef
	seed uint64
	full suite
	warm suite // the warm-up pass: the suite's first tenth
}

// newBench maps seed 0 to 1, as sim.Run does, so the layer probes replay
// the streams the measured passes replay.
func newBench(def workloadDef, seed uint64) *bench {
	if seed == 0 {
		seed = 1
	}
	full := def.suite()
	n := full.source().Len() / 10
	if n < 1 {
		n = 1
	}
	return &bench{def: def, seed: seed, full: full, warm: full.head(n)}
}

// repResult is one repetition: set-up (fresh state, then a warm-up
// pass), then the cold pass and, over result caches, a warm pass.
type repResult struct {
	setup    time.Duration
	passes   []passResult
	allocMB  float64 // heap allocated during the cold pass
	peakHeap uint64
	gcFrac   float64 // garbage collection's share of the CPU time the passes used
	// calib is the mean of the calibrations before the set-up and after
	// the passes; after is the latter, which the next repetition reuses
	// as its before.
	calib, after time.Duration
}

// slowdown is how much slower than nominal the host ran this
// repetition; a repetition's times are divided by it.
func (r repResult) slowdown() float64 { return float64(r.calib) / float64(calibrationNominal) }

func (r repResult) wall() time.Duration {
	var w time.Duration
	for _, p := range r.passes {
		w += p.wall
	}
	return w
}

func passName(i int) string {
	if i == 0 {
		return "pass.cold"
	}
	return fmt.Sprintf("pass.warm%d", i)
}

// rep runs one repetition after a calibration that took before; with a
// tracer, its passes are traced. A cached repetition runs over fresh
// result caches, and a warm pass follows its cold pass.
func (b *bench) rep(ctx context.Context, tr *tracer, before time.Duration, cached bool) (rr repResult, err error) {
	start := time.Now()
	rn, err := newRunner(b.def, cached)
	if err != nil {
		return rr, err
	}
	// The warm-up runs in process without a cache: it fills no entry a
	// cached pass reads.
	if _, err := (&inProcess{def: b.def}).pass(ctx, b.warm, b.seed, nil); err != nil {
		return rr, errors.Join(fmt.Errorf("warm-up pass: %w", err), rn.close())
	}
	rr.setup = time.Since(start)

	runtime.GC()
	heap := startHeapSampler()
	cpu := readCPU()
	warm := 0
	if cached {
		warm = 1
	}
	err = b.passes(ctx, rn, tr, &rr, warm)
	rr.gcFrac = readCPU().gcFrac(cpu)
	rr.peakHeap = heap.finish()
	if err = errors.Join(err, rn.close()); err != nil {
		return rr, err
	}
	// The calibration measures the host alone: the runner is closed and
	// the passes' garbage collected first.
	runtime.GC()
	rr.after = calibrate()
	rr.calib = (before + rr.after) / 2
	return rr, nil
}

// passes runs a repetition's cold pass and then warm passes.
func (b *bench) passes(ctx context.Context, rn runner, tr *tracer, rr *repResult, warm int) error {
	id := b.def.name + "/traced"
	var repSpan int
	if tr != nil {
		repSpan = tr.open(id, "rep", 0, time.Now())
		defer func() { tr.close(repSpan, time.Now()) }()
	}
	for i := 0; i <= warm; i++ {
		var pt *passTrace
		if tr != nil {
			pt = newPassTrace(tr, id, tr.open(id, passName(i), repSpan, time.Now()), b.def.shardSize)
		}
		allocs := heapAllocs()
		res, err := rn.pass(ctx, b.full, b.seed, pt)
		if i == 0 {
			rr.allocMB = float64(heapAllocs()-allocs) / (1 << 20)
		}
		if pt != nil {
			tr.close(pt.parent, time.Now())
		}
		if err != nil {
			return fmt.Errorf("%s: %w", passName(i), err)
		}
		res.trace = pt
		rr.passes = append(rr.passes, res)
	}
	return nil
}

// cpuTimes are the process's CPU seconds so far, as the runtime counts
// them: all of GOMAXPROCS's time, the idle part, and garbage collection.
type cpuTimes struct{ total, idle, gc float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// gcFrac is garbage collection's share of the CPU time used since
// start.
func (c cpuTimes) gcFrac(start cpuTimes) float64 {
	return (c.gc - start.gc) / ((c.total - start.total) - (c.idle - start.idle))
}

// heapAllocs returns the bytes allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak live heap, sampled every 20ms. The live
// heap is what the last garbage collection marked reachable, so unlike
// the heap's current size it does not swing with when collections run.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for read(); ; read() {
			select {
			case <-h.stop:
				read()
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// totals are a suite's deterministic counts and its MPKI table, from
// measurements that simulated every cell.
type totals struct {
	workloads    int
	instructions float64 // each workload's stream counted once
	laneRecords  float64 // records delivered to every policy lane
	mpki         []mpkiRow
}

func totalsOf(m *sim.Measurements) totals {
	t := totals{workloads: len(m.Raw)}
	for _, r := range m.Raw {
		t.instructions += float64(r.Results[0].TotalInstructions)
		for _, res := range r.Results {
			t.laneRecords += float64(res.Records)
		}
	}
	for _, k := range m.Policies {
		row := mpkiRow{Policy: k.String(), ICache: mean(m.ICacheMPKI[k]), BTB: mean(m.BTBMPKI[k])}
		if p, ok := paperMPKI[k]; ok {
			row.PaperICache, row.PaperBTB = &p[0], &p[1]
		}
		t.mpki = append(t.mpki, row)
	}
	return t
}

// reference returns the deterministic counts of the suite. A loopback
// pass carries no counts, so its reference is the single-process run
// Coordinator.Reference performs; the check that the distributed
// result equals it is recorded in rep.
func (b *bench) reference(ctx context.Context, rep *report, cold passResult) (totals, time.Duration, error) {
	if !b.def.loopback {
		return *cold.totals, 0, nil
	}
	ref, err := (&inProcess{def: b.def}).pass(ctx, b.full, b.seed, nil)
	if err != nil {
		return totals{}, 0, fmt.Errorf("reference run: %w", err)
	}
	rep.check("distributed result equals the single-process reference", cold.digest, ref.digest)
	return *ref.totals, ref.wall, nil
}

// checkReps records that every repetition's cold pass produced the
// same result, and that every warm pass reproduced it.
func (rep *report) checkReps(reps []repResult) {
	want := reps[0].passes[0].digest
	for i, r := range reps {
		rep.check(fmt.Sprintf("repetition %d equals repetition 0", i), want, r.passes[0].digest)
		for j, p := range r.passes[1:] {
			rep.check(fmt.Sprintf("repetition %d warm pass %d equals the cold pass", i, j+1), want, p.digest)
		}
	}
}

// measure runs untraced repetitions for at least budget and reports the
// end-to-end metrics.
func (b *bench) measure(ctx context.Context, budget time.Duration) (*report, error) {
	rep := newReport(b, false)
	var reps []repResult
	start := time.Now()
	before := calibrate()
	for len(reps) < minReps || time.Since(start) < budget {
		rr, err := b.rep(ctx, nil, before, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rr)
		rep.count(rr)
		before = rr.after
	}
	rep.checkReps(reps)
	t, _, err := b.reference(ctx, rep, reps[0].passes[0])
	if err != nil {
		return nil, err
	}
	rep.describe(reps[0], t)

	perRep := func(f func(r repResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	// Times and rates are scaled by each repetition's host slowdown
	// (see calibrate.go); the raw cold-pass time is reported beside them.
	cold := func(r repResult) float64 { return r.passes[0].wall.Seconds() / r.slowdown() }
	rep.add("wall_s", "s", perRep(cold)...)
	rep.add("workloads_per_s", "1/s", perRep(func(r repResult) float64 { return float64(t.workloads) / cold(r) })...)
	rep.add("sim_minstr_per_s", "Minstr/s", perRep(func(r repResult) float64 { return t.instructions / 1e6 / cold(r) })...)
	rep.add("lane_mrec_per_s", "Mrec/s", perRep(func(r repResult) float64 { return t.laneRecords / 1e6 / cold(r) })...)
	rep.add("setup_s", "s", perRep(func(r repResult) float64 { return r.setup.Seconds() / r.slowdown() })...)
	rep.add("alloc_mb", "MB", perRep(func(r repResult) float64 { return r.allocMB })...)
	rep.add("peak_heap_mb", "MB", perRep(func(r repResult) float64 { return float64(r.peakHeap) / (1 << 20) })...)
	rep.add("raw_wall_s", "s", perRep(func(r repResult) float64 { return r.passes[0].wall.Seconds() })...)
	rep.add("host_slowdown", "ratio", perRep(repResult.slowdown)...)
	rep.addValue("error_frac", "frac", rep.errorFrac(), rep.Attempted)
	return rep, nil
}

// traced runs one untraced and one traced repetition, and a cached
// repetition for the workloads that have one, then the layer probes,
// and reports the per-layer metrics.
func (b *bench) traced(ctx context.Context) (*report, []span, error) {
	rep := newReport(b, true)
	plain, err := b.rep(ctx, nil, calibrate(), false)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := b.rep(ctx, tr, plain.after, false)
	if err != nil {
		return nil, nil, err
	}
	reps := []repResult{plain, traced}
	var cached *repResult
	if b.def.cached {
		c, err := b.rep(ctx, nil, traced.after, true)
		if err != nil {
			return nil, nil, err
		}
		reps, cached = append(reps, c), &c
	}
	for _, r := range reps {
		rep.count(r)
	}
	rep.checkReps(reps)
	pr, err := b.probe(ctx, tr)
	if err != nil {
		return nil, nil, err
	}
	rep.verdict("fused results equal one-lane replays and cache entries read back", pr.verify)
	t, refWall, err := b.reference(ctx, rep, traced.passes[0])
	if err != nil {
		return nil, nil, err
	}
	rep.describe(traced, t)
	b.layerMetrics(rep, pr, t, traced, plain, refWall)
	if cached != nil {
		cacheMetrics(rep, plain, *cached)
	}
	spans := tr.finish()
	rep.Layers = layerTimes(spans)
	return rep, spans, nil
}

// layerMetrics derives the per-layer metrics from the probes and the
// traced repetition. Times are scaled by the host slowdown measured
// around them, like the end-to-end times.
func (b *bench) layerMetrics(rep *report, pr *probeResult, t totals, traced, plain repResult, refWall time.Duration) {
	n := pr.workloads
	ns := func(d time.Duration) float64 { return float64(d) / pr.records / pr.slowdown }
	rep.addValue("workload.generate_ms_per_wl", "ms", ms(pr.generate)/float64(n)/pr.slowdown, n)
	rep.addValue("workload.emit_ns_per_rec", "ns", ns(pr.emit), n)
	rep.addValue("trace.fetch_ns_per_rec", "ns", ns(pr.fetch), n)
	rep.addValue("perceptron.ns_per_rec", "ns", ns(pr.branch), n)
	rep.addValue("indirect.ns_per_rec", "ns", ns(pr.target), n)
	rep.addValue("frontend.count_ns_per_rec", "ns", ns(pr.count), n)
	rep.addValue("frontend.replay1_ns_per_rec", "ns", ns(pr.replay1), n)
	lane := map[frontend.PolicyKind]float64{}
	for i, k := range frontend.PaperPolicies() {
		lane[k] = ns(pr.pair[i] - pr.replay1)
		rep.addValue("frontend.lane_ns_per_rec."+k.String(), "ns", lane[k], n)
	}
	rep.addValue("frontend.front_residual_ns_per_rec", "ns",
		ns(pr.replay1)-lane[frontend.PolicyLRU]-ns(pr.emit)-ns(pr.fetch)-ns(pr.branch)-ns(pr.target), n)
	fused := ns(pr.fused)
	rep.addValue("frontend.fused_ns_per_rec", "ns", fused, n)
	predicted := ns(pr.replay1)
	for _, k := range b.def.policies[1:] {
		predicted += lane[k]
	}
	rep.addValue("frontend.additivity_err", "frac", math.Abs(predicted-fused)/fused, n)
	rep.addValue("frontend.allocs_per_krec", "count", float64(pr.fusedAllocs)/(pr.records/1000), n)

	rep.addValue("resultcache.put_us_p50", "us", percentile(pr.putUS, 50)/pr.slowdown, len(pr.putUS))
	rep.addValue("resultcache.put_us_p99", "us", percentile(pr.putUS, 99)/pr.slowdown, len(pr.putUS))
	rep.addValue("resultcache.get_us_p50", "us", percentile(pr.getUS, 50)/pr.slowdown, len(pr.getUS))
	rep.addValue("resultcache.get_us_p99", "us", percentile(pr.getUS, 99)/pr.slowdown, len(pr.getUS))
	rep.addValue("resultcache.entry_bytes", "bytes", pr.entryBytes, len(pr.putUS))

	cold := traced.passes[0]
	pt := cold.trace
	slots := float64(runtime.GOMAXPROCS(0))
	slow := traced.slowdown()
	taskMS := sum(pt.taskMS) / slow
	rep.addValue("sim.task_p50_ms", "ms", percentile(pt.taskMS, 50)/slow, len(pt.taskMS))
	rep.addValue("sim.task_p98_ms", "ms", percentile(pt.taskMS, 98)/slow, len(pt.taskMS))
	rep.addValue("sim.busy_frac", "frac", sum(pt.taskMS)/(ms(cold.wall)*slots), len(pt.taskMS))
	rep.addValue("sim.tail_s", "s", pt.runDone.Sub(pt.lastStart).Seconds()/slow, 1)
	// The probes' per-workload generate, count and fused replay, scaled
	// to the suite, against the time the scheduler's tasks took.
	explained := ms(pr.generate+pr.count+pr.fused) / pr.slowdown * float64(t.workloads) / float64(n)
	rep.addValue("sim.explained_frac", "frac", explained/taskMS, n)
	rep.addValue("runtime.gc_cpu_frac", "frac", traced.gcFrac, 1)
	rep.addValue("bench.trace_overhead_frac", "frac",
		(traced.wall().Seconds()/slow)/(plain.wall().Seconds()/plain.slowdown())-1, 1)
	rep.addValue("host_slowdown", "ratio", slow, 1)

	if b.def.loopback {
		b.distMetrics(rep, traced, refWall)
	}
}

// distMetrics reports the serve and dist layers of a traced loopback
// repetition, from its cold pass unless noted, with times scaled by the
// host slowdown.
func (b *bench) distMetrics(rep *report, traced repResult, refWall time.Duration) {
	cold := traced.passes[0]
	pt := cold.trace
	var shardMS, queueMS, execMS, overheadMS []float64
	for _, v := range pt.shardMS {
		shardMS = append(shardMS, v)
	}
	for _, st := range pt.statuses {
		if st.StartedAt == nil || st.FinishedAt == nil || st.Request.Suite == nil {
			continue
		}
		queueMS = append(queueMS, ms(st.StartedAt.Sub(st.CreatedAt)))
		exec := ms(st.FinishedAt.Sub(*st.StartedAt))
		execMS = append(execMS, exec)
		if lat, ok := pt.shardMS[st.Request.Suite.Lo/b.def.shardSize]; ok {
			overheadMS = append(overheadMS, lat-exec)
		}
	}
	shards := float64(cold.stats.Shards)
	tail := tailPercentile(len(shardMS))
	slow := traced.slowdown()
	pct := func(xs []float64, p float64) float64 { return percentile(xs, p) / slow }
	rep.addValue("dist.shard_p50_ms", "ms", pct(shardMS, 50), len(shardMS))
	rep.addValue(fmt.Sprintf("dist.shard_p%g_ms", tail), "ms", pct(shardMS, tail), len(shardMS))
	rep.addValue("serve.submit_ms_p50", "ms", pct(pt.submitMS, 50), len(pt.submitMS))
	rep.addValue("serve.submit_ms_p95", "ms", pct(pt.submitMS, 95), len(pt.submitMS))
	rep.addValue("serve.queue_wait_ms_p50", "ms", pct(queueMS, 50), len(queueMS))
	rep.addValue("serve.exec_ms_p50", "ms", pct(execMS, 50), len(execMS))
	rep.addValue("serve.exec_ms_p95", "ms", pct(execMS, 95), len(execMS))
	rep.addValue("serve.result_kb_p50", "KiB", percentile(pt.resultKB, 50), len(pt.resultKB))
	rep.addValue("serve.requests_per_shard", "count", float64(pt.requests)/shards, pt.requests)
	rep.addValue("serve.non2xx", "count", float64(pt.non2xx), pt.requests)
	rep.addValue("dist.overhead_ms_p50", "ms", pct(overheadMS, 50), len(overheadMS))
	rep.addValue("dist.overhead_frac", "frac", sum(overheadMS)/sum(shardMS), len(overheadMS))
	rep.addValue("dist.dispatches_per_shard", "count", float64(cold.stats.Dispatches)/shards, cold.stats.Dispatches)
	rep.addValue("dist.retries", "count", float64(cold.stats.Retries), 1)
	rep.addValue("dist.merge_parked_peak", "count", float64(cold.stats.MergeParkedPeak), 1)
	rep.addValue("dist.worker_busy_frac", "frac", sum(execMS)/(ms(cold.wall)*float64(cold.stats.Workers)), len(execMS))
	rep.addValue("dist.affinity_hit_frac", "frac",
		float64(cold.stats.AffinityHits)/float64(cold.stats.AffinityHits+cold.stats.AffinityMisses), cold.stats.Dispatches)
	rep.addValue("dist.vs_inprocess_cold", "ratio", cold.wall.Seconds()/refWall.Seconds(), 1)
}

// cacheMetrics reports the cached repetition beside the uncached one:
// what filling fresh result caches adds to a cold pass, what a warm pass
// over them costs, and how many of its lookups hit.
func cacheMetrics(rep *report, plain, cached repResult) {
	uncached := plain.passes[0].wall.Seconds() / plain.slowdown()
	cold, warm := cached.passes[0], cached.passes[1]
	rep.addValue("resultcache.cold_pass_s", "s", cold.wall.Seconds()/cached.slowdown(), 1)
	rep.addValue("resultcache.fill_extra_frac", "frac", cold.wall.Seconds()/cached.slowdown()/uncached-1, 1)
	rep.addValue("resultcache.warm_pass_frac", "frac", warm.wall.Seconds()/cached.slowdown()/uncached, 1)
	rep.addValue("resultcache.hit_frac", "frac", float64(warm.cacheHits)/float64(warm.cells), warm.cells)
}

// digest is the SHA-256 of a result identity document.
func digest(identity []byte) string {
	return fmt.Sprintf("sha256:%x", sha256.Sum256(identity))
}

// check records whether the result digest got equals want.
func (rep *report) check(name, want, got string) {
	var err error
	if want != got {
		err = fmt.Errorf("want %s, got %s", want, got)
	}
	rep.verdict(name, err)
}
