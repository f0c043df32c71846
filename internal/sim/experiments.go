package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/policies"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/workload"
)

// Structure selects which front-end structure an experiment reports on.
type Structure uint8

const (
	// ICache selects instruction cache MPKI.
	ICache Structure = iota
	// BTB selects branch target buffer MPKI.
	BTB
)

// String names the structure.
func (s Structure) String() string {
	if s == BTB {
		return "BTB"
	}
	return "I-cache"
}

// mpkiOf returns the per-workload MPKI vector for a policy and structure.
func (m *Measurements) mpkiOf(st Structure, k frontend.PolicyKind) []float64 {
	if st == BTB {
		return m.BTBMPKI[k]
	}
	return m.ICacheMPKI[k]
}

// ---------------------------------------------------------------------
// Table I — GHRP storage budget.

// Table1Row is one component of the GHRP storage budget.
type Table1Row struct {
	Component string
	Bits      int
	KB        float64
}

// Table1 computes the storage requirement rows for GHRP on an I-cache
// geometry (the paper: 64KB, 8-way, 64B blocks).
func Table1(icfg frontend.ICacheConfig, gcfg core.Config) []Table1Row {
	s := gcfg.StorageFor(icfg.Blocks())
	rows := []Table1Row{
		{Component: fmt.Sprintf("Prediction tables (%d x %d entries x 2b)", gcfg.WithDefaults().NumTables, 1<<gcfg.WithDefaults().TableBits), Bits: s.TablesTotalBits},
		{Component: fmt.Sprintf("Block metadata (%d blocks x %db)", icfg.Blocks(), s.MetaBitsPerBlock), Bits: s.MetaTotalBits},
		{Component: "History registers (speculative + retired)", Bits: s.HistoryBits},
		{Component: "Total", Bits: s.TotalBits},
	}
	for i := range rows {
		rows[i].KB = float64(rows[i].Bits) / 8 / 1024
	}
	return rows
}

// RenderTable1 renders Table I as text.
func RenderTable1(icfg frontend.ICacheConfig, gcfg core.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: GHRP storage for a %s I-cache\n", icfg)
	for _, r := range Table1(icfg, gcfg) {
		fmt.Fprintf(&b, "  %-44s %8d bits  %6.2f KB\n", r.Component, r.Bits, r.KB)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Headline numbers (§V-A text, §V-B text).

// HeadlineRow is one policy's summary line.
type HeadlineRow struct {
	Policy        frontend.PolicyKind
	MeanMPKI      float64 // arithmetic mean over all workloads
	MeanHotMPKI   float64 // mean over the >=1 LRU-MPKI subset
	ImprovePct    float64 // GHRP-style improvement of the mean vs LRU
	ImproveHotPct float64
}

// Headline summarizes a structure's results like the paper's §V text:
// mean MPKI per policy, the >= 1 LRU-MPKI subset, and improvements
// relative to each policy (for the GHRP row).
type Headline struct {
	Structure Structure
	Rows      []HeadlineRow
	HotCount  int // workloads with LRU MPKI >= 1
	Total     int
}

// ComputeHeadline builds the headline summary for a structure.
func ComputeHeadline(m *Measurements, st Structure) Headline {
	lru := m.mpkiOf(st, frontend.PolicyLRU)
	h := Headline{Structure: st, Total: len(lru)}
	h.HotCount = len(stats.FilterAtLeast(lru, lru, 1))
	lruMean := stats.Mean(lru)
	lruHot := stats.Mean(stats.FilterAtLeast(lru, lru, 1))
	for _, k := range m.Policies {
		xs := m.mpkiOf(st, k)
		row := HeadlineRow{
			Policy:      k,
			MeanMPKI:    stats.Mean(xs),
			MeanHotMPKI: stats.Mean(stats.FilterAtLeast(xs, lru, 1)),
		}
		row.ImprovePct = stats.Improvement(row.MeanMPKI, lruMean)
		row.ImproveHotPct = stats.Improvement(row.MeanHotMPKI, lruHot)
		h.Rows = append(h.Rows, row)
	}
	return h
}

// Render prints the headline table.
func (h Headline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s mean MPKI over %d workloads (hot subset: %d workloads with LRU MPKI >= 1)\n",
		h.Structure, h.Total, h.HotCount)
	fmt.Fprintf(&b, "  %-8s %10s %12s %12s %14s\n", "policy", "mean", "vs LRU", "hot mean", "hot vs LRU")
	for _, r := range h.Rows {
		fmt.Fprintf(&b, "  %-8s %10.3f %11.1f%% %12.3f %13.1f%%\n",
			r.Policy, r.MeanMPKI, r.ImprovePct, r.MeanHotMPKI, r.ImproveHotPct)
	}
	return b.String()
}

// GHRPImprovements reports GHRP's mean-MPKI improvement over each other
// policy, the paper's "18% over LRU, 24% over Random, 16% over SRRIP,
// 22% over SDBP" style summary.
func GHRPImprovements(m *Measurements, st Structure) map[frontend.PolicyKind]float64 {
	ghrp := stats.Mean(m.mpkiOf(st, frontend.PolicyGHRP))
	out := map[frontend.PolicyKind]float64{}
	for _, k := range m.Policies {
		if k == frontend.PolicyGHRP {
			continue
		}
		out[k] = stats.Improvement(ghrp, stats.Mean(m.mpkiOf(st, k)))
	}
	return out
}

// ---------------------------------------------------------------------
// Figs. 3 and 11 — S-curves.

// SCurve is the per-policy MPKI series ordered by ascending LRU MPKI.
type SCurve struct {
	Structure Structure
	Order     []int // workload indices in x-axis order
	Series    map[frontend.PolicyKind][]float64
}

// ComputeSCurve orders every policy's MPKI vector by the LRU baseline.
func ComputeSCurve(m *Measurements, st Structure) SCurve {
	base := m.mpkiOf(st, frontend.PolicyLRU)
	order := stats.SCurveOrder(base)
	sc := SCurve{Structure: st, Order: order, Series: map[frontend.PolicyKind][]float64{}}
	for _, k := range m.Policies {
		sc.Series[k] = stats.Permute(m.mpkiOf(st, k), order)
	}
	return sc
}

// Render prints the S-curve as a sampled table: one row per sampled
// x-position, one column per policy.
func (s SCurve) Render(policies []frontend.PolicyKind, samples int) string {
	n := len(s.Order)
	if n == 0 {
		return ""
	}
	if samples <= 0 || samples > n {
		samples = n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s MPKI S-curve (x = workloads sorted by LRU MPKI, %d of %d points)\n", s.Structure, samples, n)
	fmt.Fprintf(&b, "  %6s", "x")
	for _, k := range policies {
		fmt.Fprintf(&b, " %9s", k)
	}
	b.WriteByte('\n')
	for i := 0; i < samples; i++ {
		x := i * (n - 1) / max(1, samples-1)
		fmt.Fprintf(&b, "  %6d", x)
		for _, k := range policies {
			fmt.Fprintf(&b, " %9.3f", s.Series[k][x])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figs. 6 and 10 — per-benchmark bars.

// Bars selects the top-k workloads by LRU MPKI (the visible bars in the
// paper's figures) plus the mean row.
type Bars struct {
	Structure Structure
	Names     []string
	Series    map[frontend.PolicyKind][]float64 // indexed like Names; last row = mean
}

// ComputeBars builds the per-benchmark bar table.
func ComputeBars(m *Measurements, st Structure, k int) Bars {
	base := m.mpkiOf(st, frontend.PolicyLRU)
	order := stats.SCurveOrder(base)
	// Highest-MPKI workloads are at the end of the S-curve order.
	if k > len(order) {
		k = len(order)
	}
	top := order[len(order)-k:]
	bars := Bars{Structure: st, Series: map[frontend.PolicyKind][]float64{}}
	for _, wi := range top {
		bars.Names = append(bars.Names, m.Specs[wi].Name)
	}
	bars.Names = append(bars.Names, "MEAN(all)")
	for _, pk := range m.Policies {
		xs := m.mpkiOf(st, pk)
		col := make([]float64, 0, k+1)
		for _, wi := range top {
			col = append(col, xs[wi])
		}
		col = append(col, stats.Mean(xs))
		bars.Series[pk] = col
	}
	return bars
}

// Render prints the bar table.
func (bars Bars) Render(policies []frontend.PolicyKind) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s MPKI per benchmark (highest-pressure workloads + mean)\n", bars.Structure)
	fmt.Fprintf(&b, "  %-12s", "workload")
	for _, k := range policies {
		fmt.Fprintf(&b, " %9s", k)
	}
	b.WriteByte('\n')
	for i, name := range bars.Names {
		fmt.Fprintf(&b, "  %-12s", name)
		for _, k := range policies {
			fmt.Fprintf(&b, " %9.3f", bars.Series[k][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 7 — I-cache configuration sweep.

// SweepRow is one configuration's mean MPKI per policy.
type SweepRow struct {
	Config frontend.ICacheConfig
	Mean   map[frontend.PolicyKind]float64
}

// Fig7Configs returns the paper's sweep: {8,16,32,64}KB x {4,8}-way with
// 64B blocks.
func Fig7Configs() []frontend.ICacheConfig {
	var out []frontend.ICacheConfig
	for _, kb := range []int{8, 16, 32, 64} {
		for _, ways := range []int{4, 8} {
			out = append(out, frontend.ICacheConfig{SizeBytes: kb * 1024, BlockBytes: 64, Ways: ways})
		}
	}
	return out
}

// RunSweep measures mean I-cache MPKI for each configuration. Each
// configuration is a full (cancellable) suite run. When base.Cache is
// set, configurations already simulated — including the paper-default
// geometry a preceding main run covered — are served from the result
// cache instead of replayed.
func RunSweep(ctx context.Context, base Options, configs []frontend.ICacheConfig) ([]SweepRow, error) {
	rows := make([]SweepRow, 0, len(configs))
	for _, ic := range configs {
		opts := base
		opts.Config = base.Config
		if opts.Config.ICache == (frontend.ICacheConfig{}) {
			opts.Config = frontend.DefaultConfig()
		}
		opts.Config.ICache = ic
		m, err := RunContext(ctx, opts)
		if err != nil {
			return nil, err
		}
		// On keep-going runs the means cover only fully-completed
		// workloads; error-free runs pass through unchanged.
		m = m.Completed()
		row := SweepRow{Config: ic, Mean: map[frontend.PolicyKind]float64{}}
		for _, k := range m.Policies {
			row.Mean[k] = stats.Mean(m.ICacheMPKI[k])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSweep prints the configuration sweep table.
func RenderSweep(rows []SweepRow, policies []frontend.PolicyKind) string {
	var b strings.Builder
	b.WriteString("Average I-cache MPKI per configuration (Fig. 7)\n")
	fmt.Fprintf(&b, "  %-18s", "config")
	for _, k := range policies {
		fmt.Fprintf(&b, " %9s", k)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s", r.Config)
		for _, k := range policies {
			fmt.Fprintf(&b, " %9.3f", r.Mean[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 8 — mean relative difference vs LRU with 95% CI.

// CIRow is one policy's mean relative MPKI difference vs LRU.
type CIRow struct {
	Policy    frontend.PolicyKind
	Mean      float64 // mean of (policy-LRU)/LRU over workloads
	HalfWidth float64 // 95% CI half width
	N         int     // workloads with nonzero LRU MPKI
}

// ComputeCI builds the Fig. 8 rows for a structure.
func ComputeCI(m *Measurements, st Structure) []CIRow {
	base := m.mpkiOf(st, frontend.PolicyLRU)
	var rows []CIRow
	for _, k := range m.Policies {
		if k == frontend.PolicyLRU {
			continue
		}
		diffs := stats.RelativeDiffs(m.mpkiOf(st, k), base)
		mean, hw := stats.CI95(diffs)
		rows = append(rows, CIRow{Policy: k, Mean: mean, HalfWidth: hw, N: len(diffs)})
	}
	return rows
}

// RenderCI prints the Fig. 8 table.
func RenderCI(rows []CIRow, st Structure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s mean relative MPKI difference vs LRU with 95%% CI (Fig. 8)\n", st)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %+7.1f%% +/- %5.1f%%  (n=%d)\n", r.Policy, r.Mean*100, r.HalfWidth*100, r.N)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 9 — workloads harmed/similar/benefited vs LRU.

// WinLossRow is one policy's classification counts.
type WinLossRow struct {
	Policy frontend.PolicyKind
	Counts stats.WinLoss
}

// ComputeWinLoss classifies each policy against LRU with a 2% epsilon.
func ComputeWinLoss(m *Measurements, st Structure) []WinLossRow {
	base := m.mpkiOf(st, frontend.PolicyLRU)
	var rows []WinLossRow
	for _, k := range m.Policies {
		if k == frontend.PolicyLRU {
			continue
		}
		rows = append(rows, WinLossRow{Policy: k, Counts: stats.Classify(m.mpkiOf(st, k), base, 0.02)})
	}
	return rows
}

// RenderWinLoss prints the Fig. 9 table.
func RenderWinLoss(rows []WinLossRow, st Structure, total int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s workloads benefited / similar / harmed vs LRU over %d workloads (Fig. 9)\n", st, total)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s better=%4d similar=%4d worse=%4d\n",
			r.Policy, r.Counts.Better, r.Counts.Similar, r.Counts.Worse)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure bundle — the one-call text summary of a finished run.

// Figures renders the run's standard figure bundle as one text
// document: for each structure the headline MPKI table, the Fig. 8
// confidence intervals and the Fig. 9 win/loss counts. Keep-going runs
// are filtered to their completed workloads first. Runs whose policy
// set omits LRU fall back to a plain per-policy mean table, since the
// paper's comparative figures are all LRU-relative. It is the serving
// daemon's GET /runs/{id}/figures payload and a convenient one-call
// summary for library users.
func Figures(m *Measurements) string {
	c := m.Completed()
	var b strings.Builder
	if len(c.Specs) == 0 {
		b.WriteString("no completed workloads\n")
		return b.String()
	}
	_, hasLRU := c.PolicyIndex(frontend.PolicyLRU)
	for _, st := range []Structure{ICache, BTB} {
		if hasLRU {
			b.WriteString(ComputeHeadline(c, st).Render())
			b.WriteString(RenderCI(ComputeCI(c, st), st))
			b.WriteString(RenderWinLoss(ComputeWinLoss(c, st), st, len(c.Specs)))
		} else {
			fmt.Fprintf(&b, "%s mean MPKI over %d workloads\n", st, len(c.Specs))
			for _, k := range c.Policies {
				fmt.Fprintf(&b, "  %-8s %10.3f\n", k, stats.Mean(c.mpkiOf(st, k)))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figs. 1 and 5 — efficiency heat maps.

// HeatmapResult is one policy's efficiency rendering.
type HeatmapResult struct {
	Policy   frontend.PolicyKind
	MeanEff  float64
	Rendered string
}

// ComputeHeatmaps simulates one workload under each policy on the given
// configuration and renders the selected structure's efficiency matrix.
// The paper uses a 16KB 8-way I-cache (Fig. 1) and a 256-entry 8-way BTB
// (Fig. 5). One fused fan-out replays the workload's stream under every
// policy, so the program executes once, not once per policy.
func ComputeHeatmaps(cfg frontend.Config, st Structure, spec workload.Spec, instrs uint64, kinds []frontend.PolicyKind, rows, colWidth int) ([]HeatmapResult, error) {
	prog, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	fo, err := frontend.NewFanOut(cfg, kinds, frontend.WarmupFromStream)
	if err != nil {
		return nil, err
	}
	fo.TrackEfficiency()
	if _, err := fo.StreamProgram(prog, 1, instrs, frontend.StreamOptions{}); err != nil {
		return nil, err
	}
	var out []HeatmapResult
	for i, k := range kinds {
		var eff [][]float64
		if st == BTB {
			eff = fo.BTB(i).Efficiency()
		} else {
			eff = fo.ICache(i).Efficiency()
		}
		out = append(out, HeatmapResult{
			Policy:   k,
			MeanEff:  stats.MeanEfficiency(eff),
			Rendered: stats.Heatmap(eff, rows, colWidth),
		})
	}
	return out, nil
}

// RenderHeatmaps prints the heat maps side by side with captions.
func RenderHeatmaps(hs []HeatmapResult, st Structure, caption string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s efficiency heat maps (%s); lighter = longer live time\n", st, caption)
	for _, h := range hs {
		fmt.Fprintf(&b, "--- %s (mean efficiency %.3f)\n%s", h.Policy, h.MeanEff, h.Rendered)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fig. 2 — set-sampling does not generalize for instruction streams.

// SamplingRow is the outcome of SDBP with a restricted sampler.
type SamplingRow struct {
	SamplerSets int // 0 = all
	MeanMPKI    float64
	// SignatureCoverage is the fraction of distinct access signatures
	// the restricted sampler can ever observe (PCs map to single sets).
	SignatureCoverage float64
}

// ComputeSampling quantifies Fig. 2: SDBP variants whose sampler sees
// only the first N sets, versus the full-cache sampler. Because a PC
// maps to exactly one I-cache set, a small sampler observes only the
// signatures of its own sets and cannot generalize to the rest.
func ComputeSampling(ctx context.Context, base Options, samplerSets []int) ([]SamplingRow, error) {
	var rows []SamplingRow
	for _, n := range samplerSets {
		opts := base
		if opts.Config.ICache == (frontend.ICacheConfig{}) {
			opts.Config = frontend.DefaultConfig()
		}
		opts.Config.SDBP = policies.SDBPConfig{SamplerSets: n}
		opts.Policies = []frontend.PolicyKind{frontend.PolicySDBP}
		m, err := RunContext(ctx, opts)
		if err != nil {
			return nil, err
		}
		m = m.Completed()
		sets := opts.Config.ICache.Sets()
		cov := 1.0
		if n > 0 && n < sets {
			cov = float64(n) / float64(sets)
		}
		rows = append(rows, SamplingRow{
			SamplerSets:       n,
			MeanMPKI:          stats.Mean(m.ICacheMPKI[frontend.PolicySDBP]),
			SignatureCoverage: cov,
		})
	}
	return rows, nil
}

// RenderSampling prints the Fig. 2 analysis.
func RenderSampling(rows []SamplingRow, sets int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Set-sampling analysis for SDBP on a %d-set I-cache (Fig. 2):\n", sets)
	b.WriteString("a PC indexes exactly one set, so a sampler over k sets observes k/sets of signatures\n")
	for _, r := range rows {
		label := fmt.Sprintf("%d sets", r.SamplerSets)
		if r.SamplerSets == 0 {
			label = "all sets"
		}
		fmt.Fprintf(&b, "  sampler=%-9s coverage=%5.1f%%  mean MPKI=%7.3f\n", label, r.SignatureCoverage*100, r.MeanMPKI)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Helpers.

// TopPressureSpec returns the workload with the highest LRU I-cache
// MPKI in m — a good subject for the heat-map figures.
func TopPressureSpec(m *Measurements) workload.Spec {
	base := m.ICacheMPKI[frontend.PolicyLRU]
	best, bestV := 0, -1.0
	for i, v := range base {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return m.Specs[best]
}

// SortedCopy returns xs sorted ascending (for rendering distributions).
func SortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
