package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/workload"
)

// small shrinks a workload to a smoke size that runs in about a second.
func small(d workloadDef) workloadDef {
	if d.fixedN > 0 {
		d.fixedN, d.scale = 6, 0.01
	} else {
		d.genN = 24
	}
	return d
}

// TestSmokeEmitsLedgerMetrics runs every workload at smoke size in both
// modes and checks that the result line carries every metric
// BENCHMARK.json lists, in its unit, with a finite value.
func TestSmokeEmitsLedgerMetrics(t *testing.T) {
	l, err := readLedger(filepath.Join("..", ledgerPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		for _, trace := range []int{0, 1} {
			o := options{workload: def.name, seed: 2, seconds: 1, trace: trace}
			rep, listed, err := execute(context.Background(), newBench(small(def), o.seed), o, l)
			if err != nil {
				t.Fatalf("%s trace %d: %v", def.name, trace, err)
			}
			if !rep.correct() {
				t.Fatalf("%s trace %d: checks failed: %+v", def.name, trace, rep.Checks)
			}
			line, err := rep.resultLine(listed)
			if err != nil {
				t.Fatalf("%s trace %d: %v", def.name, trace, err)
			}
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("%s trace %d: result line %s: %v", def.name, trace, line, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failed %d", def.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace %d: %d metrics in the result line, %d listed", def.name, trace, len(res.Metrics), len(listed))
			}
			for _, m := range listed {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v, want a finite value in %s", def.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestLedgerMatchesWorkloads pins BENCHMARK.json's workload list to the
// workloads this command defines.
func TestLedgerMatchesWorkloads(t *testing.T) {
	var l struct{ Workloads []struct{ Name, Why string } }
	blob, err := os.ReadFile(filepath.Join("..", ledgerPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command defines %d", len(l.Workloads), len(workloads))
	}
	for i, w := range l.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %s (%s), the command %s (%s)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{7, 3, 9, 1, 10, 2, 8, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {25, 3}, {50, 5}, {75, 8}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
	// The tail is the highest candidate with at least ten samples beyond
	// its nearest rank.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {662, 98}, {375, 95}, {100, 90}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	setSelfTimes(spans)
	// The children cover [10,50) and [90,100) of the parent.
	for _, c := range []struct {
		id   int
		want int64
	}{{1, 50}, {2, 15}, {3, 30}, {4, 30}, {5, 5}} {
		if got := spans[c.id-1].Self; got != c.want {
			t.Errorf("span %d self = %d, want %d", c.id, got, c.want)
		}
	}
	lt := layerTimes(spans)
	if len(lt) != 3 || lt[1].Name != "child" || lt[1].Spans != 3 || math.Abs(lt[1].SelfMS-75e-6) > 1e-12 {
		t.Errorf("layer times = %+v", lt)
	}
}

// TestChecksCatchDivergence injects one divergence into the input of
// each correctness check and expects it to be reported.
func TestChecksCatchDivergence(t *testing.T) {
	t.Run("fused equals one-lane", func(t *testing.T) {
		specs := workload.SuiteN(2)
		kinds := frontend.PaperPolicies()
		mk := func() [][]frontend.Result {
			out := make([][]frontend.Result, len(specs))
			for wi := range out {
				out[wi] = make([]frontend.Result, len(kinds))
				for pi := range out[wi] {
					out[wi][pi] = frontend.Result{Policy: kinds[pi], Records: 100}
				}
			}
			return out
		}
		base, fused := mk(), mk()
		if err := verifyIdentical(specs, kinds, base, fused); err != nil {
			t.Fatalf("identical results rejected: %v", err)
		}
		fused[1][2].ICache.Hits++
		if err := verifyIdentical(specs, kinds, base, fused); err == nil {
			t.Error("a diverged cell passed")
		}
		if err := verifyIdentical(specs, kinds, base, mk()[:1]); err == nil {
			t.Error("a missing workload passed")
		}
	})

	reps := func() []repResult {
		pass := func(id string) passResult { return passResult{digest: id} }
		return []repResult{
			{passes: []passResult{pass("a"), pass("a")}},
			{passes: []passResult{pass("a"), pass("a")}},
		}
	}
	for _, c := range []struct {
		name   string
		inject func([]repResult)
	}{
		{"repetitions agree", func(r []repResult) { r[1].passes[0].digest = "b" }},
		{"warm equals cold", func(r []repResult) { r[0].passes[1].digest = "b" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := &report{}
			rep.checkReps(reps())
			if !rep.correct() {
				t.Fatalf("agreeing repetitions failed: %+v", rep.Checks)
			}
			r := reps()
			c.inject(r)
			rep = &report{}
			rep.checkReps(r)
			if rep.correct() || rep.Failed != 1 {
				t.Errorf("divergence not caught once: failed %d, checks %+v", rep.Failed, rep.Checks)
			}
		})
	}

	t.Run("distributed equals reference", func(t *testing.T) {
		def, err := lookup("dist-loopback")
		if err != nil {
			t.Fatal(err)
		}
		b := newBench(small(def), 1)
		ref, err := (&inProcess{def: b.def}).pass(context.Background(), b.full, b.seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			digest string
			ok     bool
		}{{ref.digest, true}, {digest([]byte("a diverged result document")), false}} {
			rep := &report{}
			if _, _, err := b.reference(context.Background(), rep, passResult{digest: c.digest}); err != nil {
				t.Fatal(err)
			}
			if rep.correct() != c.ok {
				t.Errorf("digest equal %v: checks %+v", c.ok, rep.Checks)
			}
		}
	})
}

func TestResultLineRejectsUnmeasured(t *testing.T) {
	rep := &report{Attempted: 1}
	rep.addValue("wall_s", "s", 1.5, 3)
	if _, err := rep.resultLine([]ledgerMetric{{"wall_s", "s"}}); err != nil {
		t.Fatal(err)
	}
	for _, listed := range [][]ledgerMetric{{{"setup_s", "s"}}, {{"wall_s", "ms"}}} {
		if _, err := rep.resultLine(listed); err == nil {
			t.Errorf("result line accepted %+v", listed)
		}
	}
	rep.addValue("nan_s", "s", math.NaN(), 0)
	if _, err := rep.resultLine([]ledgerMetric{{"nan_s", "s"}}); err == nil {
		t.Error("result line accepted a NaN value")
	}
}
