package sim

import (
	"context"
	"strings"
	"testing"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/workload"
)

// tinyOptions runs a fast suite subset.
func tinyOptions() Options {
	return Options{
		Workloads: workload.SuiteN(8),
		Scale:     0.03,
	}
}

func runTiny(t *testing.T) *Measurements {
	t.Helper()
	m, err := Run(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunShapes(t *testing.T) {
	m := runTiny(t)
	if len(m.Specs) != 8 {
		t.Fatalf("%d specs", len(m.Specs))
	}
	if len(m.Policies) != 5 {
		t.Fatalf("%d policies", len(m.Policies))
	}
	for _, k := range m.Policies {
		if len(m.ICacheMPKI[k]) != 8 || len(m.BTBMPKI[k]) != 8 {
			t.Fatalf("%v: vector lengths %d/%d", k, len(m.ICacheMPKI[k]), len(m.BTBMPKI[k]))
		}
		for i, v := range m.ICacheMPKI[k] {
			if v < 0 || v > 1000 {
				t.Errorf("%v workload %d: absurd MPKI %v", k, i, v)
			}
		}
	}
	if _, ok := m.PolicyIndex(frontend.PolicyGHRP); !ok {
		t.Error("GHRP missing from policy index")
	}
	if _, ok := m.PolicyIndex(frontend.PolicyFIFO); ok {
		t.Error("FIFO unexpectedly present")
	}
	for i, wr := range m.Raw {
		if wr.Spec.Name != m.Specs[i].Name {
			t.Errorf("raw result %d misaligned", i)
		}
		if len(wr.Results) != 5 {
			t.Errorf("raw result %d has %d policy results", i, len(wr.Results))
		}
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	a := tinyOptions()
	a.Parallelism = 1
	b := tinyOptions()
	b.Parallelism = 8
	ma, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ma.Policies {
		for i := range ma.ICacheMPKI[k] {
			if ma.ICacheMPKI[k][i] != mb.ICacheMPKI[k][i] {
				t.Fatalf("parallelism changed results for %v workload %d", k, i)
			}
		}
	}
}

func TestHeadline(t *testing.T) {
	m := runTiny(t)
	for _, st := range []Structure{ICache, BTB} {
		h := ComputeHeadline(m, st)
		if h.Total != 8 || len(h.Rows) != 5 {
			t.Fatalf("%v headline shape %d/%d", st, h.Total, len(h.Rows))
		}
		out := h.Render()
		for _, k := range m.Policies {
			if !strings.Contains(out, k.String()) {
				t.Errorf("%v render missing %v:\n%s", st, k, out)
			}
		}
		impr := GHRPImprovements(m, st)
		if len(impr) != 4 {
			t.Errorf("%v improvements over %d policies, want 4", st, len(impr))
		}
	}
}

func TestSCurveExperiment(t *testing.T) {
	m := runTiny(t)
	sc := ComputeSCurve(m, ICache)
	base := sc.Series[frontend.PolicyLRU]
	for i := 1; i < len(base); i++ {
		if base[i] < base[i-1] {
			t.Fatal("S-curve LRU series not ascending")
		}
	}
	out := sc.Render(m.Policies, 5)
	if !strings.Contains(out, "S-curve") || len(strings.Split(out, "\n")) < 6 {
		t.Errorf("render wrong:\n%s", out)
	}
	if empty := (SCurve{}).Render(m.Policies, 5); empty != "" {
		t.Error("empty S-curve should render empty")
	}
}

func TestBarsExperiment(t *testing.T) {
	m := runTiny(t)
	bars := ComputeBars(m, BTB, 3)
	if len(bars.Names) != 4 {
		t.Fatalf("bars rows = %d, want 3 + mean", len(bars.Names))
	}
	if bars.Names[3] != "MEAN(all)" {
		t.Errorf("last row = %q", bars.Names[3])
	}
	out := bars.Render(m.Policies)
	if !strings.Contains(out, "MEAN(all)") {
		t.Errorf("render missing mean row:\n%s", out)
	}
	// Oversized k clamps.
	big := ComputeBars(m, ICache, 100)
	if len(big.Names) != 9 {
		t.Errorf("clamped bars rows = %d, want 8 + mean", len(big.Names))
	}
}

func TestCIExperiment(t *testing.T) {
	m := runTiny(t)
	rows := ComputeCI(m, ICache)
	if len(rows) != 4 {
		t.Fatalf("%d CI rows, want 4 (no LRU row)", len(rows))
	}
	for _, r := range rows {
		if r.Policy == frontend.PolicyLRU {
			t.Error("LRU must not be compared against itself")
		}
		if r.HalfWidth < 0 {
			t.Error("negative CI half width")
		}
	}
	out := RenderCI(rows, ICache)
	if !strings.Contains(out, "95% CI") {
		t.Errorf("render:\n%s", out)
	}
}

func TestWinLossExperiment(t *testing.T) {
	m := runTiny(t)
	rows := ComputeWinLoss(m, ICache)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		total := r.Counts.Better + r.Counts.Similar + r.Counts.Worse
		if total != 8 {
			t.Errorf("%v classification total %d, want 8", r.Policy, total)
		}
	}
	out := RenderWinLoss(rows, ICache, 8)
	if !strings.Contains(out, "better=") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable1Experiment(t *testing.T) {
	rows := Table1(frontend.DefaultICache(), core.Config{})
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	total := rows[len(rows)-1]
	sum := 0
	for _, r := range rows[:len(rows)-1] {
		sum += r.Bits
	}
	if total.Bits != sum {
		t.Errorf("total %d != sum %d", total.Bits, sum)
	}
	out := RenderTable1(frontend.DefaultICache(), core.Config{})
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Total") {
		t.Errorf("render:\n%s", out)
	}
}

func TestHeatmapExperiment(t *testing.T) {
	cfg := frontend.DefaultConfig()
	cfg.ICache = frontend.ICacheConfig{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 8}
	cfg.BTB = frontend.BTBConfig{Entries: 256, Ways: 8}
	spec := workload.SuiteN(8)[5]
	kinds := []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP}
	for _, st := range []Structure{ICache, BTB} {
		hs, err := ComputeHeatmaps(cfg, st, spec, 20000, kinds, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) != 2 {
			t.Fatalf("%d heatmaps", len(hs))
		}
		for _, h := range hs {
			if h.Rendered == "" {
				t.Errorf("%v/%v: empty rendering", st, h.Policy)
			}
			if h.MeanEff < 0 || h.MeanEff > 1 {
				t.Errorf("%v/%v: mean efficiency %v", st, h.Policy, h.MeanEff)
			}
		}
		out := RenderHeatmaps(hs, st, "test")
		if !strings.Contains(out, "GHRP") {
			t.Errorf("render:\n%s", out)
		}
	}
}

func TestSamplingExperiment(t *testing.T) {
	base := Options{Workloads: workload.SuiteN(4), Scale: 0.02}
	ms, err := RunGrid(context.Background(), base, SamplingVariants(frontend.Config{}, []int{2, 32, 0}))
	if err != nil {
		t.Fatal(err)
	}
	rows := SamplingRows(ms)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].SignatureCoverage >= rows[2].SignatureCoverage {
		t.Error("restricted sampler coverage not below full coverage")
	}
	if rows[2].SignatureCoverage != 1 {
		t.Error("full sampler coverage != 1")
	}
	out := RenderSampling(rows, 128)
	if !strings.Contains(out, "sampler=all sets") {
		t.Errorf("render:\n%s", out)
	}
}

func TestSweepExperiment(t *testing.T) {
	base := Options{
		Workloads: workload.SuiteN(4),
		Scale:     0.02,
		Policies:  []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicyGHRP},
	}
	configs := []frontend.ICacheConfig{
		{SizeBytes: 8 * 1024, BlockBytes: 64, Ways: 4},
		{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 8},
	}
	ms, err := RunGrid(context.Background(), base, SweepVariants(frontend.Config{}, configs))
	if err != nil {
		t.Fatal(err)
	}
	rows := SweepRows(ms)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// A larger cache must not have (much) higher LRU MPKI.
	if rows[1].Mean[frontend.PolicyLRU] > rows[0].Mean[frontend.PolicyLRU]*1.1 {
		t.Errorf("16KB LRU MPKI %.3f > 8KB %.3f", rows[1].Mean[frontend.PolicyLRU], rows[0].Mean[frontend.PolicyLRU])
	}
	out := RenderSweep(rows, base.Policies)
	if !strings.Contains(out, "8KB/4-way/64B") {
		t.Errorf("render:\n%s", out)
	}
	if len(Fig7Configs()) != 8 {
		t.Error("Fig. 7 sweeps 8 configurations")
	}
}

func TestAblations(t *testing.T) {
	base := Options{Workloads: workload.SuiteN(3), Scale: 0.02}
	ablations := Ablations(frontend.Config{})
	if len(ablations) != 6 {
		t.Fatalf("%d ablations, want 6", len(ablations))
	}
	for i, want := range []int{2, 5, 2, 3, 4, 4} {
		a := ablations[i]
		ms, err := RunGrid(context.Background(), base, a.Variants)
		if err != nil {
			t.Fatalf("%s: %v", a.Title, err)
		}
		rows := a.Rows(ms)
		if len(rows) != want {
			t.Fatalf("%s: %d rows, want %d", a.Title, len(rows), want)
		}
		for _, r := range rows {
			if r.ICacheMPKI < 0 || r.BTBMPKI < 0 {
				t.Errorf("%s/%s: negative MPKI", a.Title, r.Variant)
			}
		}
		out := RenderAblation(a.Title, rows)
		if !strings.Contains(out, rows[0].Variant) {
			t.Errorf("%s render:\n%s", a.Title, out)
		}
	}
}

func TestTopPressureSpec(t *testing.T) {
	m := runTiny(t)
	spec := TopPressureSpec(m)
	idx := -1
	for i, s := range m.Specs {
		if s.Name == spec.Name {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("top spec not in suite")
	}
	base := m.ICacheMPKI[frontend.PolicyLRU]
	for _, v := range base {
		if v > base[idx] {
			t.Fatal("TopPressureSpec not maximal")
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	opts := tinyOptions()
	opts.Config = frontend.DefaultConfig()
	opts.Config.ICache.BlockBytes = 48
	if _, err := Run(opts); err == nil {
		t.Error("invalid config accepted")
	}
}

// computeHeadroom runs opts as a one-variant headroom grid.
func computeHeadroom(ctx context.Context, opts Options) (HeadroomReport, error) {
	ms, err := RunGrid(ctx, opts, []Variant{HeadroomVariant(Variant{})})
	if err != nil {
		return HeadroomReport{}, err
	}
	return Headroom(ms[0])
}

func TestHeadroomExperiment(t *testing.T) {
	rep, err := computeHeadroom(context.Background(), Options{Workloads: workload.SuiteN(4), Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OPTMean > rep.LRUMean {
		t.Errorf("OPT mean %.3f above LRU mean %.3f", rep.OPTMean, rep.LRUMean)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Policy == frontend.PolicyLRU && (r.GapClosed < -0.01 || r.GapClosed > 0.01) {
			t.Errorf("LRU gap closed %.3f, want ~0", r.GapClosed)
		}
	}
	out := rep.Render()
	if !strings.Contains(out, "OPT") {
		t.Errorf("render:\n%s", out)
	}
}

// OPT's MPKI must cover the same window as the lanes': the misses past
// the skip index over the counted instructions. With a cache larger
// than every footprint, no block is ever evicted, so OPT and LRU take
// the same compulsory misses and their MPKI must be equal. Dividing
// OPT's misses by total − WarmupFor(total) instead would also count the
// rest of the record that crosses the warm-up limit, whose accesses
// OPT's skip index already drops.
func TestHeadroomOPTUsesCountedWindow(t *testing.T) {
	opts := Options{Workloads: workload.SuiteN(8), Scale: 0.05, Policies: []frontend.PolicyKind{frontend.PolicyLRU}}
	opts.Config = frontend.DefaultConfig()
	opts.Config.ICache = frontend.ICacheConfig{SizeBytes: 16 << 20, BlockBytes: 64, Ways: 16}
	rep, err := computeHeadroom(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LRUMean == 0 {
		t.Fatal("no misses after warm-up; the suite cannot tell the windows apart")
	}
	if rep.OPTMean != rep.LRUMean || rep.Included != 0 {
		t.Errorf("no-eviction cache: OPT mean %v, LRU mean %v, %d gapped workloads; want equal means and none gapped",
			rep.OPTMean, rep.LRUMean, rep.Included)
	}
}

// computeHeadroom aggregates the gap over gapped workloads: each row's
// GapClosed is (ΣLRU − Σpolicy) / (ΣLRU − ΣOPT) over the workloads whose
// OPT MPKI is below LRU's. An 8KB I-cache gaps most of the suite, and an
// independent recomputation must reproduce the report: the policy MPKI
// vectors of a plain run, and OPT from Belady's MIN over the access tap
// of a one-pass LRU fan-out per workload, whose Results set the tap's
// warm-up skip.
func TestHeadroomAggregatesGappedWorkloads(t *testing.T) {
	opts := Options{Workloads: workload.SuiteN(8), Scale: 0.05, Config: frontend.DefaultConfig()}
	opts.Config.ICache = frontend.ICacheConfig{SizeBytes: 8 << 10, BlockBytes: 64, Ways: 4}
	rep, err := computeHeadroom(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Config
	optV := make([]float64, len(opts.Workloads))
	for wi, spec := range opts.Workloads {
		prog, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		fo, err := frontend.NewFanOut(cfg, []frontend.PolicyKind{frontend.PolicyLRU}, frontend.WarmupFromStream)
		if err != nil {
			t.Fatal(err)
		}
		var log frontend.AccessLog
		fo.TapAccesses(&log)
		res, err := fo.StreamProgram(prog, 1, targetFor(spec, opts.Scale), frontend.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ost, err := opt.Simulate(log.Blocks, cfg.ICache.Sets(), cfg.ICache.Ways, log.Skip)
		if err != nil {
			t.Fatal(err)
		}
		optV[wi] = ost.MPKI(res[0].CountedInstrs)
	}
	lruV := m.ICacheMPKI[frontend.PolicyLRU]
	var gapped []int
	for wi := range lruV {
		if lruV[wi]-optV[wi] > 1e-6 {
			gapped = append(gapped, wi)
		}
	}
	if len(gapped) < 3 {
		t.Fatalf("%d gapped workloads; the aggregation needs several", len(gapped))
	}
	t.Logf("%d of %d workloads gapped", len(gapped), len(lruV))
	if rep.Included != len(gapped) {
		t.Errorf("report includes %d gapped workloads, recomputation %d", rep.Included, len(gapped))
	}
	sum := func(v []float64) float64 {
		var s float64
		for _, wi := range gapped {
			s += v[wi]
		}
		return s
	}
	lruSum, optSum := sum(lruV), sum(optV)
	for i, k := range m.Policies {
		want := (lruSum - sum(m.ICacheMPKI[k])) / (lruSum - optSum)
		if got := rep.Rows[i].GapClosed; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%v closes %.9f of the gap, recomputation %.9f", k, got, want)
		}
	}
}

// Headroom measures every gap from LRU, so a roster without it is
// rejected instead of reported as a table of zeros.
func TestHeadroomRequiresLRU(t *testing.T) {
	_, err := computeHeadroom(context.Background(), Options{Workloads: workload.SuiteN(2), Scale: 0.05,
		Policies: []frontend.PolicyKind{frontend.PolicyGHRP}})
	if err == nil || !strings.Contains(err.Error(), "LRU") {
		t.Fatalf("roster without LRU: err %v, want one naming LRU", err)
	}
}

// A policy listed twice gets two identical rows, each equal to the row
// it gets when listed once.
func TestHeadroomDuplicatePolicy(t *testing.T) {
	opts := Options{Workloads: workload.SuiteN(4), Scale: 0.05,
		Policies: []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicySRRIP}}
	once, err := computeHeadroom(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Policies = []frontend.PolicyKind{frontend.PolicyLRU, frontend.PolicySRRIP, frontend.PolicySRRIP}
	twice, err := computeHeadroom(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if twice.Rows[1] != once.Rows[1] || twice.Rows[2] != once.Rows[1] {
		t.Errorf("duplicated SRRIP rows %+v, %+v; listed once %+v", twice.Rows[1], twice.Rows[2], once.Rows[1])
	}
}

func TestAblationPrefetch(t *testing.T) {
	a := Ablations(frontend.Config{})[5] // next-line prefetching
	ms, err := RunGrid(context.Background(), Options{Workloads: workload.SuiteN(3), Scale: 0.05}, a.Variants)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Rows(ms)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Next-line prefetching must reduce (or at least not inflate)
	// demand MPKI for sequential-heavy instruction streams.
	if rows[1].ICacheMPKI > rows[0].ICacheMPKI*1.05 {
		t.Errorf("LRU+prefetch %.3f worse than LRU %.3f", rows[1].ICacheMPKI, rows[0].ICacheMPKI)
	}
}
