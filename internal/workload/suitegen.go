package workload

import (
	"fmt"
	"math"

	"ghrpsim/internal/trace"
)

// DefaultGenSeed salts generated suites when SuiteGen.Seed is zero;
// distinct from suiteSeed so a generated workload never collides with a
// fixed-suite workload even at identical parameters.
const DefaultGenSeed = 0x5EED_96E1

// Mix weights the four trace categories of a generated suite. Weights
// are relative (they need not sum to anything); a zero Mix selects
// DefaultMix.
type Mix struct {
	ShortMobile float64 `json:"short_mobile"`
	LongMobile  float64 `json:"long_mobile"`
	ShortServer float64 `json:"short_server"`
	LongServer  float64 `json:"long_server"`
}

// DefaultMix mirrors the fixed 662-workload suite's category
// proportions.
func DefaultMix() Mix {
	return Mix{
		ShortMobile: nShortMobile,
		LongMobile:  nLongMobile,
		ShortServer: nShortServer,
		LongServer:  nLongServer,
	}
}

func (m Mix) zero() bool {
	return m == Mix{}
}

func (m Mix) weights() [4]float64 {
	return [4]float64{m.ShortMobile, m.LongMobile, m.ShortServer, m.LongServer}
}

// pick maps a uniform draw in [0,1) to a category by cumulative weight.
func (m Mix) pick(x float64) trace.Category {
	w := m.weights()
	total := w[0] + w[1] + w[2] + w[3]
	cats := [4]trace.Category{trace.ShortMobile, trace.LongMobile, trace.ShortServer, trace.LongServer}
	acc := 0.0
	for i, cat := range cats {
		acc += w[i] / total
		if x < acc {
			return cat
		}
	}
	return cats[3]
}

// SuiteGen is a lazily generated workload suite: a category-mix ×
// footprint-sweep × seed grid that yields specs on demand (O(1) per
// call, nothing materialized), scaling the suite from the paper's 662
// traces to 100k+ without any process holding the programs at once.
//
// Index i decomposes as (footprint step, seed row): step = i %
// FootprintSteps sweeps the footprint multiplier log-uniformly from
// FootprintMin to FootprintMax (the capacity axis of the paper's
// Fig. 5 headroom study), and the remaining bits select an independent
// seed row, so every cell of the grid is a fresh workload. The category
// is drawn per index from Mix.
//
// At(i) is a pure function of (Seed, Mix, Footprint*, i): two processes
// holding equal parameters synthesize bit-identical specs and programs,
// which is what lets the distributed coordinator ship only the grid
// parameters plus an index range per shard.
type SuiteGen struct {
	// N is the suite size.
	N int `json:"n"`
	// Seed salts every per-index draw; 0 selects DefaultGenSeed.
	Seed uint64 `json:"seed,omitempty"`
	// Mix weights the categories; the zero Mix selects DefaultMix.
	Mix Mix `json:"mix,omitempty"`
	// FootprintMin/Max bound the footprint multiplier applied to the
	// category template's code-size knobs (function counts, init-code
	// length); 0/0 selects 0.25–4.0. Values below 1 shrink working sets
	// under the cache, values above stress capacity. Validate caps
	// FootprintMax at MaxFootprint.
	FootprintMin float64 `json:"footprint_min,omitempty"`
	FootprintMax float64 `json:"footprint_max,omitempty"`
	// FootprintSteps is the number of sweep points between Min and Max
	// (log-spaced); 0 selects 8.
	FootprintSteps int `json:"footprint_steps,omitempty"`
}

// WithDefaults resolves zero fields to their documented defaults.
func (g SuiteGen) WithDefaults() SuiteGen {
	if g.Seed == 0 {
		g.Seed = DefaultGenSeed
	}
	if g.Mix.zero() {
		g.Mix = DefaultMix()
	}
	if g.FootprintMin == 0 && g.FootprintMax == 0 {
		g.FootprintMin, g.FootprintMax = 0.25, 4.0
	}
	if g.FootprintSteps == 0 {
		g.FootprintSteps = 8
	}
	return g
}

// MaxFootprint caps a grid's footprint multiplier. The multiplier
// scales function counts linearly, so an uncapped grid lets a
// one-workload submission ask the program generator for 10^15
// functions. The default grid (0.25–4.0) tops out near 12k functions
// (11988 over its first 100k indices); 16 leaves 4x headroom above it
// and bounds a program at about 48k functions, which the generator
// builds in under 0.1 s and 60 MB.
const MaxFootprint = 16

// Validate rejects unusable grids (call after WithDefaults).
func (g SuiteGen) Validate() error {
	if g.N < 1 {
		return fmt.Errorf("workload: suite gen needs n >= 1, got %d", g.N)
	}
	if !(g.FootprintMin > 0) || math.IsInf(g.FootprintMin, 0) {
		return fmt.Errorf("workload: suite gen footprint_min %v must be a positive finite multiplier", g.FootprintMin)
	}
	// Negated so a NaN bound fails too.
	if !(g.FootprintMax >= g.FootprintMin) || math.IsInf(g.FootprintMax, 0) {
		return fmt.Errorf("workload: suite gen footprint bounds [%v, %v] invalid", g.FootprintMin, g.FootprintMax)
	}
	if g.FootprintMax > MaxFootprint {
		return fmt.Errorf("workload: suite gen footprint_max %v exceeds %d", g.FootprintMax, MaxFootprint)
	}
	if g.FootprintSteps < 1 {
		return fmt.Errorf("workload: suite gen needs footprint_steps >= 1, got %d", g.FootprintSteps)
	}
	w := g.Mix.weights()
	total := 0.0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload: suite gen mix weights must be finite and non-negative, got %+v", g.Mix)
		}
		total += v
	}
	if total <= 0 || math.IsInf(total, 0) {
		return fmt.Errorf("workload: suite gen mix weights must have a positive finite sum, got %+v", g.Mix)
	}
	return nil
}

// Len implements Source.
func (g SuiteGen) Len() int { return g.N }

// At synthesizes workload i of the grid. Implements Source.
func (g SuiteGen) At(i int) Spec {
	g = g.WithDefaults()
	if i < 0 || i >= g.N {
		panic(fmt.Sprintf("workload: suite gen index %d out of range [0, %d)", i, g.N))
	}
	r := newRNG(genIndexSeed(g.Seed, i))
	cat := g.Mix.pick(r.float())
	name := fmt.Sprintf("G%s-%06d", shortName(cat), i)
	return drawSpec(r, cat, name, i, g.footprintAt(i))
}

// footprintAt returns index i's footprint multiplier: log-spaced sweep
// point i % FootprintSteps between Min and Max (a single step pins Min).
func (g SuiteGen) footprintAt(i int) float64 {
	steps := g.FootprintSteps
	if steps <= 1 || g.FootprintMax == g.FootprintMin {
		return g.FootprintMin
	}
	step := i % steps
	lo, hi := math.Log(g.FootprintMin), math.Log(g.FootprintMax)
	return math.Exp(lo + (hi-lo)*float64(step)/float64(steps-1))
}

// genIndexSeed decorrelates per-index rng streams with a SplitMix64
// finalizer; xorshift alone would start adjacent indices in nearly
// identical states.
func genIndexSeed(seed uint64, i int) uint64 {
	x := seed ^ uint64(i)*0x9E3779B97F4A7C15
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
