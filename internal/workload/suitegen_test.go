package workload

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ghrpsim/internal/trace"
)

// suiteGoldenSHA pins the fixed 662-workload suite byte for byte: the
// generative-suite refactor routes Suite() through the same drawSpec
// the generator sweeps, and this hash proves the shared path left
// every fixed-suite parameter untouched. If a deliberate suite change
// moves it, regenerate with:
//
//	go test ./internal/workload/ -run TestSuiteGoldenPinned -v
const suiteGoldenSHA = "48c44c138765743820dc14234ee0487d8de597658e207178de7d625e5791fded"

func TestSuiteGoldenPinned(t *testing.T) {
	blob, err := json.Marshal(Suite())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%x", sha256.Sum256(blob))
	t.Logf("suite SHA-256: %s", got)
	if got != suiteGoldenSHA {
		t.Errorf("Suite() hash changed:\n got  %s\n want %s\nthe fixed suite must stay bit-identical across the generative refactor", got, suiteGoldenSHA)
	}
}

// Same grid, separate generator values: every spec — and the programs
// generated from them — must be bit-identical, because the distributed
// coordinator ships only the grid and workers regenerate locally.
func TestSuiteGenDeterministicAcrossInstances(t *testing.T) {
	a := SuiteGen{N: 64}
	b := SuiteGen{N: 64}
	for _, i := range []int{0, 1, 7, 31, 63} {
		sa, sb := a.At(i), b.At(i)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("index %d differs across instances:\n%+v\n%+v", i, sa, sb)
		}
		pa, err := sa.Generate()
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("index %d programs differ", i)
		}
	}
}

func TestSuiteGenSeedChangesSpecs(t *testing.T) {
	a := SuiteGen{N: 8}
	b := SuiteGen{N: 8, Seed: 12345}
	diff := 0
	for i := 0; i < 8; i++ {
		if a.At(i).Profile.Seed != b.At(i).Profile.Seed {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the generator seed left every workload identical")
	}
}

func TestSuiteGenMixAndNames(t *testing.T) {
	g := SuiteGen{N: 400}
	seen := map[trace.Category]int{}
	for i := 0; i < g.Len(); i++ {
		s := g.At(i)
		if s.Index != i {
			t.Fatalf("At(%d).Index = %d", i, s.Index)
		}
		if !strings.HasPrefix(s.Name, "G"+shortName(s.Category)+"-") {
			t.Fatalf("At(%d).Name = %q, want G%s- prefix", i, s.Name, shortName(s.Category))
		}
		seen[s.Category]++
	}
	for _, cat := range []trace.Category{trace.ShortMobile, trace.LongMobile, trace.ShortServer, trace.LongServer} {
		if seen[cat] == 0 {
			t.Errorf("default mix drew no %v workloads over %d draws", cat, g.Len())
		}
	}

	// A single-category mix draws only that category.
	only := SuiteGen{N: 32, Mix: Mix{LongServer: 1}}
	for i := 0; i < only.Len(); i++ {
		if got := only.At(i).Category; got != trace.LongServer {
			t.Fatalf("pure LongServer mix drew %v at %d", got, i)
		}
	}
}

// The footprint sweep must actually sweep: specs on the top footprint
// step carry substantially more functions (code footprint) than specs
// on the bottom step, category held equal by the per-index rng.
func TestSuiteGenFootprintSweep(t *testing.T) {
	g := SuiteGen{N: 800, FootprintMin: 0.25, FootprintMax: 4, FootprintSteps: 8}.WithDefaults()
	var lo, hi, nlo, nhi float64
	for i := 0; i < g.Len(); i++ {
		s := g.At(i)
		switch i % g.FootprintSteps {
		case 0:
			lo += float64(s.Profile.Funcs)
			nlo++
		case g.FootprintSteps - 1:
			hi += float64(s.Profile.Funcs)
			nhi++
		}
	}
	meanLo, meanHi := lo/nlo, hi/nhi
	if meanHi < 4*meanLo {
		t.Errorf("footprint sweep too shallow: mean funcs %0.1f at min step vs %0.1f at max (want >= 4x over a 16x multiplier range)", meanLo, meanHi)
	}
}

func TestSuiteGenValidate(t *testing.T) {
	bad := []SuiteGen{
		{N: 0},
		{N: -3},
		{N: 1, FootprintMin: -1},
		{N: 1, FootprintMin: 2, FootprintMax: 1},
		{N: 1, FootprintSteps: -2},
		{N: 1, Mix: Mix{ShortMobile: -1}},
		{N: 1, FootprintMin: 0.5, FootprintMax: math.NaN()},
		// Finite weights whose sum overflows: every draw would fall
		// through to the last category.
		{N: 1, Mix: Mix{ShortMobile: math.MaxFloat64, LongServer: math.MaxFloat64}},
		// A huge multiplier: At(0) would ask for ~10^15 functions.
		{N: 1, FootprintMin: 1e12, FootprintMax: 1e12},
		{N: 1, FootprintMin: 1, FootprintMax: MaxFootprint * 1.0001},
	}
	for _, g := range bad {
		if err := g.WithDefaults().Validate(); err == nil {
			t.Errorf("Validate accepted %+v", g)
		}
	}
	if err := (SuiteGen{N: 100_000}).WithDefaults().Validate(); err != nil {
		t.Errorf("Validate rejected a plain 100k grid: %v", err)
	}
	if err := (SuiteGen{N: 1, FootprintMin: MaxFootprint, FootprintMax: MaxFootprint}).WithDefaults().Validate(); err != nil {
		t.Errorf("Validate rejected a grid at the footprint cap: %v", err)
	}
}

func TestSuiteGenAtBounds(t *testing.T) {
	g := SuiteGen{N: 4}
	for _, i := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", i)
				}
			}()
			g.At(i)
		}()
	}
}

func TestSourceRangeAndMaterialize(t *testing.T) {
	src := SliceSource(SuiteN(6))
	r := NewRange(src, 2, 5)
	if r.Len() != 3 {
		t.Fatalf("Range.Len = %d, want 3", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		got, want := r.At(i), src.At(2+i)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Range.At(%d) = %+v, want %+v", i, got, want)
		}
		if got.Index != want.Index {
			t.Fatalf("Range.At(%d) rewrote the suite-global index", i)
		}
	}
	m := Materialize(r)
	if len(m) != 3 || !reflect.DeepEqual(m[0], src.At(2)) {
		t.Fatalf("Materialize mismatch: %+v", m)
	}

	for _, bounds := range [][2]int{{-1, 2}, {3, 2}, {0, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRange(%v) did not panic", bounds)
				}
			}()
			NewRange(src, bounds[0], bounds[1])
		}()
	}
}

// A Range over a SuiteGen is the coordinator's shard view; it must
// yield exactly the generator's specs at the shifted indices.
func TestSuiteGenRangeWindow(t *testing.T) {
	g := SuiteGen{N: 50}
	r := NewRange(g, 20, 30)
	for i := 0; i < r.Len(); i++ {
		if !reflect.DeepEqual(r.At(i), g.At(20+i)) {
			t.Fatalf("window At(%d) differs from generator At(%d)", i, 20+i)
		}
	}
}
