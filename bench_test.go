// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark runs
// the corresponding experiment on a reduced suite (benchmarks must
// terminate quickly; `cmd/experiments` runs the full-size versions) and
// reports the headline metric of that artifact via b.ReportMetric, so
// `go test -bench=.` both exercises and summarizes the reproduction.
package ghrpsim

import (
	"context"
	"sync"
	"testing"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/workload"
)

// benchOptions is the reduced-suite configuration shared by the
// experiment benchmarks.
func benchOptions() sim.Options {
	return sim.Options{
		Workloads: workload.SuiteN(12),
		Scale:     0.25,
	}
}

var (
	benchMeasOnce sync.Once
	benchMeas     *sim.Measurements
	benchMeasErr  error
)

// benchMeasurements runs the shared default-configuration suite once.
func benchMeasurements(b *testing.B) *sim.Measurements {
	b.Helper()
	benchMeasOnce.Do(func() {
		benchMeas, benchMeasErr = sim.Run(benchOptions())
	})
	if benchMeasErr != nil {
		b.Fatal(benchMeasErr)
	}
	return benchMeas
}

// BenchmarkTable1Storage regenerates Table I (GHRP storage budget).
func BenchmarkTable1Storage(b *testing.B) {
	var rows []sim.Table1Row
	for i := 0; i < b.N; i++ {
		rows = sim.Table1(frontend.DefaultICache(), core.Config{})
	}
	b.ReportMetric(rows[len(rows)-1].KB, "total-KB")
}

// BenchmarkFig1HeatmapICache regenerates Fig. 1 (I-cache efficiency heat
// map, 16KB 8-way, five policies).
func BenchmarkFig1HeatmapICache(b *testing.B) {
	m := benchMeasurements(b)
	cfg := frontend.DefaultConfig()
	cfg.ICache = frontend.ICacheConfig{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 8}
	spec := sim.TopPressureSpec(m)
	var hs []sim.HeatmapResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		hs, err = sim.ComputeHeatmaps(cfg, sim.ICache, spec, 50_000, frontend.PaperPolicies(), 32, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hs[len(hs)-1].MeanEff, "ghrp-efficiency")
	b.ReportMetric(hs[0].MeanEff, "lru-efficiency")
}

// BenchmarkFig2SetSampling regenerates Fig. 2's analysis: SDBP with a
// restricted sampler cannot generalize over instruction streams.
func BenchmarkFig2SetSampling(b *testing.B) {
	var rows []sim.SamplingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.ComputeSampling(context.Background(), benchOptions(), []int{2, 32, 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeanMPKI, "sampled-2sets-mpki")
	b.ReportMetric(rows[len(rows)-1].MeanMPKI, "full-sampler-mpki")
}

// BenchmarkFig3ICacheSCurve regenerates Fig. 3 (I-cache MPKI S-curve).
func BenchmarkFig3ICacheSCurve(b *testing.B) {
	m := benchMeasurements(b)
	var sc sim.SCurve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc = sim.ComputeSCurve(m, sim.ICache)
	}
	series := sc.Series[frontend.PolicyGHRP]
	b.ReportMetric(series[len(series)-1], "ghrp-max-mpki")
}

// BenchmarkFig5HeatmapBTB regenerates Fig. 5 (BTB efficiency heat map,
// 256-entry 8-way).
func BenchmarkFig5HeatmapBTB(b *testing.B) {
	m := benchMeasurements(b)
	cfg := frontend.DefaultConfig()
	cfg.BTB = frontend.BTBConfig{Entries: 256, Ways: 8}
	spec := sim.TopPressureSpec(m)
	var hs []sim.HeatmapResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		hs, err = sim.ComputeHeatmaps(cfg, sim.BTB, spec, 50_000, frontend.PaperPolicies(), 32, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hs[len(hs)-1].MeanEff, "ghrp-efficiency")
}

// BenchmarkFig6ICacheBars regenerates Fig. 6 (per-benchmark I-cache MPKI
// bars plus the mean).
func BenchmarkFig6ICacheBars(b *testing.B) {
	m := benchMeasurements(b)
	var bars sim.Bars
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars = sim.ComputeBars(m, sim.ICache, 8)
	}
	mean := bars.Series[frontend.PolicyGHRP]
	b.ReportMetric(mean[len(mean)-1], "ghrp-mean-mpki")
}

// BenchmarkFig7ConfigSweep regenerates Fig. 7 (average MPKI across
// {8,16,32,64}KB x {4,8}-way configurations).
func BenchmarkFig7ConfigSweep(b *testing.B) {
	var rows []sim.SweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.RunSweep(context.Background(), benchOptions(), sim.Fig7Configs())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Mean[frontend.PolicyLRU], "8KB4w-lru-mpki")
	b.ReportMetric(rows[len(rows)-1].Mean[frontend.PolicyGHRP], "64KB8w-ghrp-mpki")
}

// BenchmarkFig8ConfidenceIntervals regenerates Fig. 8 (mean relative
// MPKI difference vs LRU with 95% CI).
func BenchmarkFig8ConfidenceIntervals(b *testing.B) {
	m := benchMeasurements(b)
	var rows []sim.CIRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = sim.ComputeCI(m, sim.ICache)
	}
	for _, r := range rows {
		if r.Policy == frontend.PolicyGHRP {
			b.ReportMetric(r.Mean*100, "ghrp-rel-diff-pct")
			b.ReportMetric(r.HalfWidth*100, "ci95-halfwidth-pct")
		}
	}
}

// BenchmarkFig9WinLoss regenerates Fig. 9 (workloads benefited / similar
// / harmed versus LRU).
func BenchmarkFig9WinLoss(b *testing.B) {
	m := benchMeasurements(b)
	var rows []sim.WinLossRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = sim.ComputeWinLoss(m, sim.ICache)
	}
	for _, r := range rows {
		if r.Policy == frontend.PolicyGHRP {
			b.ReportMetric(float64(r.Counts.Worse), "ghrp-harmed")
			b.ReportMetric(float64(r.Counts.Better), "ghrp-benefited")
		}
	}
}

// BenchmarkFig10BTBBars regenerates Fig. 10 (per-benchmark BTB MPKI).
func BenchmarkFig10BTBBars(b *testing.B) {
	m := benchMeasurements(b)
	var bars sim.Bars
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars = sim.ComputeBars(m, sim.BTB, 8)
	}
	mean := bars.Series[frontend.PolicyGHRP]
	b.ReportMetric(mean[len(mean)-1], "ghrp-mean-mpki")
}

// BenchmarkFig11BTBSCurve regenerates Fig. 11 (BTB MPKI S-curve).
func BenchmarkFig11BTBSCurve(b *testing.B) {
	m := benchMeasurements(b)
	var sc sim.SCurve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc = sim.ComputeSCurve(m, sim.BTB)
	}
	series := sc.Series[frontend.PolicyGHRP]
	b.ReportMetric(series[len(series)-1], "ghrp-max-mpki")
}

// BenchmarkHeadlineNumbers regenerates the Section V text numbers: mean
// MPKI per policy and GHRP's improvement percentages.
func BenchmarkHeadlineNumbers(b *testing.B) {
	m := benchMeasurements(b)
	var h sim.Headline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = sim.ComputeHeadline(m, sim.ICache)
	}
	for _, row := range h.Rows {
		switch row.Policy {
		case frontend.PolicyLRU:
			b.ReportMetric(row.MeanMPKI, "lru-mean-mpki")
		case frontend.PolicyGHRP:
			b.ReportMetric(row.MeanMPKI, "ghrp-mean-mpki")
			b.ReportMetric(row.ImprovePct, "ghrp-vs-lru-pct")
		}
	}
}

// --- Ablation benches (DESIGN.md abl-*) ----------------------------------

func benchAblation(b *testing.B, fn func(context.Context, sim.Options) ([]sim.AblationRow, error)) []sim.AblationRow {
	b.Helper()
	var rows []sim.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = fn(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

// BenchmarkAblationVoteVsSum compares majority vote against summation
// aggregation (§III-C).
func BenchmarkAblationVoteVsSum(b *testing.B) {
	rows := benchAblation(b, sim.AblationVote)
	b.ReportMetric(rows[0].ICacheMPKI, "majority-mpki")
	b.ReportMetric(rows[1].ICacheMPKI, "summation-mpki")
}

// BenchmarkAblationHistoryDepth varies the path history depth (§III-A).
func BenchmarkAblationHistoryDepth(b *testing.B) {
	rows := benchAblation(b, sim.AblationHistoryDepth)
	b.ReportMetric(rows[0].ICacheMPKI, "pc-only-mpki")
	b.ReportMetric(rows[len(rows)-1].ICacheMPKI, "depth4-mpki")
}

// BenchmarkAblationBypass compares bypass on/off.
func BenchmarkAblationBypass(b *testing.B) {
	rows := benchAblation(b, sim.AblationBypass)
	b.ReportMetric(rows[0].ICacheMPKI, "bypass-on-mpki")
	b.ReportMetric(rows[1].ICacheMPKI, "bypass-off-mpki")
}

// BenchmarkAblationSpeculation compares wrong-path pollution with and
// without history recovery (§III-F).
func BenchmarkAblationSpeculation(b *testing.B) {
	rows := benchAblation(b, sim.AblationSpeculation)
	b.ReportMetric(rows[1].ICacheMPKI, "recover-mpki")
	b.ReportMetric(rows[2].ICacheMPKI, "no-recover-mpki")
}

// BenchmarkAblationTableCount varies the number of prediction tables.
func BenchmarkAblationTableCount(b *testing.B) {
	rows := benchAblation(b, sim.AblationTableCount)
	b.ReportMetric(rows[0].ICacheMPKI, "1table-mpki")
	b.ReportMetric(rows[2].ICacheMPKI, "3tables-mpki")
}

// --- Microbenchmarks: simulator throughput --------------------------------

var (
	benchRecsOnce sync.Once
	benchRecs     []Record
	benchRecsErr  error
)

func benchRecords(b *testing.B) []Record {
	b.Helper()
	benchRecsOnce.Do(func() {
		spec := workload.SuiteN(12)[8]
		prog, err := spec.Generate()
		if err != nil {
			benchRecsErr = err
			return
		}
		benchRecs, benchRecsErr = frontend.GenerateRecords(prog, 1, 200_000)
	})
	if benchRecsErr != nil {
		b.Fatal(benchRecsErr)
	}
	return benchRecs
}

func benchEngine(b *testing.B, kind frontend.PolicyKind) {
	recs := benchRecords(b)
	total, err := frontend.CountInstructions(recs, 4, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		fo, err := frontend.NewFanOut(frontend.DefaultConfig(), []frontend.PolicyKind{kind}, frontend.DefaultConfig().WarmupFor(total))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			fo.Process(r)
		}
		instrs = fo.Results()[0].TotalInstructions
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkEngineLRU measures simulator throughput under LRU.
func BenchmarkEngineLRU(b *testing.B) { benchEngine(b, frontend.PolicyLRU) }

// BenchmarkEngineGHRP measures simulator throughput under GHRP.
func BenchmarkEngineGHRP(b *testing.B) { benchEngine(b, frontend.PolicyGHRP) }

// BenchmarkEngineSDBP measures simulator throughput under modified SDBP.
func BenchmarkEngineSDBP(b *testing.B) { benchEngine(b, frontend.PolicySDBP) }

// BenchmarkPredictor measures raw GHRP predict+train throughput.
func BenchmarkPredictor(b *testing.B) {
	p, err := core.NewPredictor(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := uint16(i * 2654435761)
		p.Predict(sig, 2)
		p.Train(sig, i&7 == 0)
	}
}

// BenchmarkWorkloadGeneration measures synthetic program generation.
func BenchmarkWorkloadGeneration(b *testing.B) {
	spec := workload.SuiteN(12)[8]
	for i := 0; i < b.N; i++ {
		if _, err := spec.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceEmit measures trace emission throughput.
func BenchmarkTraceEmit(b *testing.B) {
	spec := workload.SuiteN(12)[8]
	prog, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n uint64
	for i := 0; i < b.N; i++ {
		cnt, err := workload.Emit(prog, 1, 100_000, func(Record) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		n += cnt
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}

// --- Sanity test: the benchmark suite's headline keeps the paper's
// direction (GHRP at least matches LRU) so regressions in the policy are
// caught by `go test` as well as by the benches.
func TestBenchSuiteDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("suite simulation in -short mode")
	}
	m, err := sim.Run(benchOptions())
	if err != nil {
		t.Fatal(err)
	}
	lru := stats.Mean(m.ICacheMPKI[frontend.PolicyLRU])
	ghrp := stats.Mean(m.ICacheMPKI[frontend.PolicyGHRP])
	if ghrp > lru*1.02 {
		t.Errorf("GHRP mean I-cache MPKI %.3f worse than LRU %.3f", ghrp, lru)
	}
	rnd := stats.Mean(m.ICacheMPKI[frontend.PolicyRandom])
	if rnd < lru*0.95 {
		t.Errorf("Random mean %.3f unexpectedly better than LRU %.3f", rnd, lru)
	}
}

// BenchmarkAblationPrefetch measures next-line prefetching composed with
// LRU and GHRP (the paper's §II-E related-work direction).
func BenchmarkAblationPrefetch(b *testing.B) {
	rows := benchAblation(b, sim.AblationPrefetch)
	b.ReportMetric(rows[0].ICacheMPKI, "lru-mpki")
	b.ReportMetric(rows[1].ICacheMPKI, "lru+pf-mpki")
	b.ReportMetric(rows[3].ICacheMPKI, "ghrp+pf-mpki")
}
