package sim

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/workload"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/sim/ -run TestGolden -update
//
// Review the diff before committing; the goldens are the renderers'
// regression contract.
var update = flag.Bool("update", false, "rewrite golden files with current renderer output")

// fabricatedMeasurements builds a fully deterministic Measurements from
// hand-set MPKI literals — no simulation — so the golden files pin the
// renderers' formatting, not the simulator's numbers.
func fabricatedMeasurements() *Measurements {
	specs := workload.SuiteN(6)
	policies := frontend.PaperPolicies()
	// A spread that exercises the renderers' branches: workloads below
	// and above the hot-subset threshold (LRU MPKI >= 1), and policy
	// factors that classify as better / similar / worse vs LRU under the
	// 2% epsilon.
	lru := []float64{0.25, 1.5, 3.2, 0.8, 5.75, 2.1}
	factor := map[frontend.PolicyKind]float64{
		frontend.PolicyLRU:    1.0,
		frontend.PolicyRandom: 1.25,
		frontend.PolicySRRIP:  0.9,
		frontend.PolicySDBP:   1.01, // within epsilon: "similar"
		frontend.PolicyGHRP:   0.8,
	}
	m := &Measurements{
		Specs:      specs,
		Policies:   policies,
		ICacheMPKI: map[frontend.PolicyKind][]float64{},
		BTBMPKI:    map[frontend.PolicyKind][]float64{},
		BranchMPKI: make([]float64, len(specs)),
	}
	for _, k := range policies {
		ic := make([]float64, len(specs))
		bt := make([]float64, len(specs))
		for wi := range specs {
			ic[wi] = lru[wi] * factor[k]
			bt[wi] = 0.5 * lru[wi] * factor[k]
		}
		m.ICacheMPKI[k] = ic
		m.BTBMPKI[k] = bt
	}
	for wi := range specs {
		m.BranchMPKI[wi] = 1 + 0.1*float64(wi)
	}
	return m
}

// fabricatedSweepRows mirrors Fig. 7's shape with literal means.
func fabricatedSweepRows() []SweepRow {
	var rows []SweepRow
	for i, cfg := range []frontend.ICacheConfig{
		{SizeBytes: 8 * 1024, BlockBytes: 64, Ways: 4},
		{SizeBytes: 64 * 1024, BlockBytes: 64, Ways: 8},
	} {
		mean := map[frontend.PolicyKind]float64{}
		for pi, k := range frontend.PaperPolicies() {
			mean[k] = float64(8-4*i) + 0.125*float64(pi)
		}
		rows = append(rows, SweepRow{Config: cfg, Mean: mean})
	}
	return rows
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim/ -run TestGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("renderer output changed; rerun with -update if intended.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestGoldenRenderers pins the text output of every experiment renderer
// against checked-in golden files built from fabricated, deterministic
// inputs.
func TestGoldenRenderers(t *testing.T) {
	m := fabricatedMeasurements()
	cases := []struct {
		name string
		out  string
	}{
		{"table1", RenderTable1(frontend.DefaultICache(), core.Config{})},
		{"headline", ComputeHeadline(m, ICache).Render() + ComputeHeadline(m, BTB).Render()},
		{"scurve", ComputeSCurve(m, ICache).Render(m.Policies, 4)},
		{"bars", ComputeBars(m, ICache, 3).Render(m.Policies)},
		{"sweep", RenderSweep(fabricatedSweepRows(), frontend.PaperPolicies())},
		{"ci", RenderCI(ComputeCI(m, ICache), ICache) + RenderCI(ComputeCI(m, BTB), BTB)},
		{"winloss", RenderWinLoss(ComputeWinLoss(m, ICache), ICache, len(m.Specs)) +
			RenderWinLoss(ComputeWinLoss(m, BTB), BTB, len(m.Specs))},
		{"figures", Figures(m)},
		{"ablation", RenderAblation("majority vote vs summation", []AblationRow{
			{Variant: "summation (paper)", ICacheMPKI: 2.125, BTBMPKI: 1.0625},
			{Variant: "majority vote", ICacheMPKI: 2.5, BTBMPKI: 1.25},
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkGolden(t, c.name, c.out) })
	}
}

// TestGoldenHeadroom pins the headroom report end to end: a real
// ComputeHeadroom run over a small suite, rendered, plus every field at
// full precision, so a change to how the policy lanes or the OPT pass
// are run must reproduce the same numbers bit for bit.
func TestGoldenHeadroom(t *testing.T) {
	rep, err := ComputeHeadroom(context.Background(), Options{Workloads: workload.SuiteN(8), Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "headroom", rep.Render()+fmt.Sprintf("%+v\n", rep))
}
