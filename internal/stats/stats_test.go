package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of singleton != 0")
	}
	// Known value: sample stddev of {2,4,4,4,5,5,7,9} = 2.138...
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
}

func TestCI95(t *testing.T) {
	mean, hw := CI95([]float64{10, 10, 10, 10})
	if mean != 10 || hw != 0 {
		t.Errorf("constant data CI = (%v, %v)", mean, hw)
	}
	xs := make([]float64, 400)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	mean, hw = CI95(xs)
	if !almostEq(mean, 0, 1e-9) {
		t.Errorf("mean %v, want 0", mean)
	}
	// sd ~1, se ~0.05, hw ~0.098
	if !almostEq(hw, 0.098, 0.005) {
		t.Errorf("half width %v, want ~0.098", hw)
	}
	_, hw1 := CI95([]float64{3})
	if hw1 != 0 {
		t.Error("singleton CI half-width != 0")
	}
}

func TestRelativeDiffs(t *testing.T) {
	got := RelativeDiffs([]float64{8, 12, 5}, []float64{10, 10, 0})
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2 (zero baseline skipped)", len(got))
	}
	if !almostEq(got[0], -0.2, 1e-12) || !almostEq(got[1], 0.2, 1e-12) {
		t.Errorf("diffs = %v", got)
	}
	// Mismatched lengths use the shorter.
	if got := RelativeDiffs([]float64{1}, []float64{2, 3}); len(got) != 1 {
		t.Errorf("mismatched lengths: %v", got)
	}
}

func TestClassify(t *testing.T) {
	xs := []float64{0.5, 1.0, 2.0, 0, 1}
	base := []float64{1.0, 1.0, 1.0, 0, 0}
	w := Classify(xs, base, 0.02)
	if w.Better != 1 || w.Similar != 2 || w.Worse != 2 {
		t.Errorf("Classify = %+v, want 1/2/2", w)
	}
	total := w.Better + w.Similar + w.Worse
	if total != 5 {
		t.Errorf("classification dropped entries: %d", total)
	}
}

func TestClassifyEpsilonBoundary(t *testing.T) {
	w := Classify([]float64{1.019, 0.981}, []float64{1, 1}, 0.02)
	if w.Similar != 2 {
		t.Errorf("boundary values not similar: %+v", w)
	}
}

func TestSCurveOrderAndPermute(t *testing.T) {
	base := []float64{3, 1, 2}
	idx := SCurveOrder(base)
	want := []int{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("order = %v, want %v", idx, want)
		}
	}
	other := []float64{30, 10, 20}
	p := Permute(other, idx)
	if p[0] != 10 || p[1] != 20 || p[2] != 30 {
		t.Errorf("Permute = %v", p)
	}
}

func TestSCurveOrderIsPermutationProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) {
				xs[i] = 0
			}
		}
		idx := SCurveOrder(xs)
		if len(idx) != len(xs) {
			return false
		}
		seen := make([]bool, len(xs))
		for _, j := range idx {
			if j < 0 || j >= len(xs) || seen[j] {
				return false
			}
			seen[j] = true
		}
		for i := 1; i < len(idx); i++ {
			if xs[idx[i]] < xs[idx[i-1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterAtLeast(t *testing.T) {
	xs := []float64{10, 20, 30}
	base := []float64{0.5, 1.0, 2.0}
	got := FilterAtLeast(xs, base, 1.0)
	if len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Errorf("FilterAtLeast = %v", got)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(0.86, 1.05); !almostEq(got, 18.095, 0.01) {
		t.Errorf("Improvement = %v, want ~18.1 (the paper's headline)", got)
	}
	if Improvement(1, 0) != 0 {
		t.Error("zero base must not divide")
	}
}

func TestHeatmap(t *testing.T) {
	eff := [][]float64{
		{0, 1},
		{0.5, 0.5},
		{1, 0},
		{1, 1},
	}
	out := Heatmap(eff, 4, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), out)
	}
	if lines[0] != "  @@" {
		t.Errorf("row 0 = %q, want \"  @@\"", lines[0])
	}
	if lines[3] != "@@@@" {
		t.Errorf("row 3 = %q", lines[3])
	}
	// Downsampling to 2 rows averages pairs.
	small := Heatmap(eff, 2, 1)
	if got := len(strings.Split(strings.TrimRight(small, "\n"), "\n")); got != 2 {
		t.Errorf("downsampled rows = %d, want 2", got)
	}
	if Heatmap(nil, 4, 2) != "" || Heatmap(eff, 0, 1) != "" {
		t.Error("degenerate inputs must render empty")
	}
}

func TestHeatmapClamps(t *testing.T) {
	out := Heatmap([][]float64{{-1, 2}}, 1, 1)
	if out != " @\n" {
		t.Errorf("clamped render = %q", out)
	}
}

func TestMeanEfficiency(t *testing.T) {
	if MeanEfficiency(nil) != 0 {
		t.Error("empty mean != 0")
	}
	got := MeanEfficiency([][]float64{{0, 1}, {0.5, 0.5}})
	if !almostEq(got, 0.5, 1e-12) {
		t.Errorf("MeanEfficiency = %v", got)
	}
}

func TestWritePGM(t *testing.T) {
	eff := [][]float64{{0, 0.5}, {1, 2}}
	var buf strings.Builder
	if err := WritePGM(&buf, eff, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "P5\n4 4\n255\n") {
		t.Errorf("header wrong: %q", out[:12])
	}
	body := out[len("P5\n4 4\n255\n"):]
	if len(body) != 16 {
		t.Fatalf("body length %d, want 16", len(body))
	}
	// Top-left 2x2 block is 0, bottom-left is 255, clamped 2.0 -> 255.
	if body[0] != 0 || body[8] != 255 || body[11] != 255 {
		t.Errorf("pixel values wrong: %v", []byte(body))
	}
	if err := WritePGM(&buf, nil, 1); err == nil {
		t.Error("empty matrix accepted")
	}
	if err := WritePGM(&buf, [][]float64{{1}, {1, 2}}, 1); err == nil {
		t.Error("ragged matrix accepted")
	}
}
