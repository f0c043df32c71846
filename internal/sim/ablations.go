package sim

import (
	"fmt"
	"strings"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/stats"
)

// AblationRow is one variant's mean MPKI for both structures.
type AblationRow struct {
	Variant    string
	ICacheMPKI float64
	BTBMPKI    float64
}

// Ablation is one design-choice study: named variants of a base
// configuration, each run under one policy.
type Ablation struct {
	Title    string
	Variants []Variant
}

// Ablations lists the studies of the design choices of Section III, and
// of next-line prefetching composed with replacement (§II-E), on base. A
// variant whose change reproduces the paper's configuration — e.g.
// "bypass-on (paper)" — shares its cells with every other variant of the
// grid that runs it, and with result-cache entries of earlier runs.
func Ablations(base frontend.Config) []Ablation {
	base = orDefault(base)
	variant := func(name string, kind frontend.PolicyKind, mutate func(*frontend.Config)) Variant {
		v := Variant{Name: name, Config: base, Policies: []frontend.PolicyKind{kind}}
		mutate(&v.Config)
		return v
	}
	ghrp := func(name string, mutate func(*frontend.Config)) Variant {
		return variant(name, frontend.PolicyGHRP, mutate)
	}
	// History depth: how many previous accesses the path history records
	// (0 = PC-only signatures, the PC-based-predictor degenerate case).
	var depths []Variant
	for _, d := range []struct {
		name      string
		bits, pcB int
	}{
		{"depth-0 (PC only)", 16, 0},
		{"depth-1", 4, 3},
		{"depth-2", 8, 3},
		{"depth-3", 12, 3},
		{"depth-4 (paper)", 16, 3},
	} {
		depths = append(depths, ghrp(d.name, func(c *frontend.Config) {
			c.GHRP.HistoryBits = d.bits
			if d.pcB == 0 {
				c.GHRP.PCBitsPerAccess = -1 // PC-only signatures
			}
		}))
	}
	// Wrong-path handling: each polluting variant fetches WrongPathDepth
	// blocks down every wrong path, two when the base sets no depth.
	pollute := func(mode frontend.WrongPathMode) func(*frontend.Config) {
		return func(c *frontend.Config) {
			c.WrongPath = mode
			if c.WrongPathDepth == 0 {
				c.WrongPathDepth = 2
			}
		}
	}
	var tables []Variant
	for _, t := range []struct {
		name string
		n    int
	}{{"1 table", 1}, {"2 tables", 2}, {"3 tables (paper)", 3}, {"5 tables", 5}} {
		tables = append(tables, ghrp(t.name, func(c *frontend.Config) { c.GHRP.NumTables = t.n }))
	}
	prefetch := func(on bool) func(*frontend.Config) {
		return func(c *frontend.Config) { c.NextLinePrefetch = on }
	}
	return []Ablation{
		{"majority vote vs summation (Section III-C)", []Variant{
			ghrp("majority-vote", func(c *frontend.Config) { c.GHRP.Aggregation = core.MajorityVote }),
			ghrp("summation", func(c *frontend.Config) { c.GHRP.Aggregation = core.Summation }),
		}},
		{"path history depth (Section III-A)", depths},
		{"bypass on/off", []Variant{
			ghrp("bypass-on (paper)", func(c *frontend.Config) { c.GHRP.DisableBypass = false }),
			ghrp("bypass-off", func(c *frontend.Config) { c.GHRP.DisableBypass = true }),
		}},
		{"wrong-path speculation handling (Section III-F)", []Variant{
			ghrp("no-wrong-path", func(c *frontend.Config) { c.WrongPath = frontend.WrongPathOff }),
			ghrp("pollute+recover (paper)", pollute(frontend.WrongPathInject)),
			ghrp("pollute, no recovery", pollute(frontend.WrongPathNoRecover)),
		}},
		{"prediction table count", tables},
		{"next-line prefetching x replacement (Section II-E)", []Variant{
			variant("LRU", frontend.PolicyLRU, prefetch(false)),
			variant("LRU + next-line", frontend.PolicyLRU, prefetch(true)),
			variant("GHRP", frontend.PolicyGHRP, prefetch(false)),
			variant("GHRP + next-line", frontend.PolicyGHRP, prefetch(true)),
		}},
	}
}

// Rows reads each variant's mean MPKIs for its one policy from its
// measurements, ms, which parallel a.Variants. On keep-going runs the
// means cover only fully-completed workloads.
func (a Ablation) Rows(ms []*Measurements) []AblationRow {
	rows := make([]AblationRow, len(a.Variants))
	for i, v := range a.Variants {
		m, k := ms[i].Completed(), v.Policies[0]
		rows[i] = AblationRow{Variant: v.Name, ICacheMPKI: stats.Mean(m.ICacheMPKI[k]), BTBMPKI: stats.Mean(m.BTBMPKI[k])}
	}
	return rows
}

// RenderAblation prints ablation rows.
func RenderAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", title)
	fmt.Fprintf(&b, "  %-24s %12s %12s\n", "variant", "icache MPKI", "BTB MPKI")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %12.3f %12.3f\n", r.Variant, r.ICacheMPKI, r.BTBMPKI)
	}
	return b.String()
}
