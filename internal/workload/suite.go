package workload

import (
	"fmt"
	"math"

	"ghrpsim/internal/trace"
)

// SuiteSize is the number of workloads, matching the paper's 662 CBP-5
// traces.
const SuiteSize = 662

// Category populations. CBP-5 mixes short/long mobile/server traces; the
// exact split is not published, so the suite uses a balanced mix with
// the same total.
const (
	nShortMobile = 186
	nLongMobile  = 145
	nShortServer = 186
	nLongServer  = 145
)

// MaxDefaultInstructions is the largest unscaled budget of any suite
// workload, fixed or generated: the LONG categories' budget, twice the
// SHORT one.
const MaxDefaultInstructions = 2_000_000

// Spec identifies one suite workload: its profile plus the default
// instruction budget (scaled by the harness).
type Spec struct {
	Index    int
	Name     string
	Category trace.Category
	Profile  Profile
	// DefaultInstructions is the unscaled per-workload instruction
	// budget; LONG categories get twice the SHORT budget, mirroring the
	// paper's longer simulations for long traces.
	DefaultInstructions uint64
}

// Generate synthesizes the workload's program.
func (s Spec) Generate() (*Program, error) { return Generate(s.Profile) }

// suiteSeed salts all per-workload parameter draws; changing it yields a
// different (but still deterministic) suite.
const suiteSeed = 0x5EED_CB05

// Suite returns all 662 workload specifications in deterministic order:
// SHORT-MOBILE, LONG-MOBILE, SHORT-SERVER, LONG-SERVER.
func Suite() []Spec {
	specs := make([]Spec, 0, SuiteSize)
	add := func(cat trace.Category, n int) {
		for i := 0; i < n; i++ {
			specs = append(specs, newSpec(cat, i, len(specs)))
		}
	}
	add(trace.ShortMobile, nShortMobile)
	add(trace.LongMobile, nLongMobile)
	add(trace.ShortServer, nShortServer)
	add(trace.LongServer, nLongServer)
	return specs
}

// Find returns the suite workload with the given name.
func Find(name string) (Spec, error) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// SuiteN returns an evenly spaced subsample of n workloads (all four
// categories represented), for quick runs; n >= SuiteSize returns the
// full suite.
func SuiteN(n int) []Spec {
	all := Suite()
	if n <= 0 {
		n = 1
	}
	if n >= len(all) {
		return all
	}
	out := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*len(all)/n])
	}
	return out
}

// newSpec draws one workload's parameters from its category template.
func newSpec(cat trace.Category, catIdx, globalIdx int) Spec {
	r := newRNG(uint64(suiteSeed) ^ uint64(globalIdx)*0x9E3779B97F4A7C15 ^ uint64(cat)<<56)
	name := fmt.Sprintf("%s-%03d", shortName(cat), catIdx+1)
	return drawSpec(r, cat, name, globalIdx, 1)
}

// drawSpec draws one workload's parameters from its category template,
// with the code-footprint knobs (function counts, init-code length)
// scaled by mult — 1 reproduces the fixed suite's sizing exactly, and
// SuiteGen sweeps it for the footprint axis. Every multiplier consumes
// the identical rng draw sequence (scaling transforms draw bounds, not
// draw counts), so changing mult never perturbs unrelated parameters.
func drawSpec(r *rng, cat trace.Category, name string, globalIdx int, mult float64) Spec {
	scl := func(v int) int {
		if mult == 1 {
			return v
		}
		s := int(math.Round(float64(v) * mult))
		if s < 2 {
			s = 2
		}
		return s
	}

	p := Profile{
		Name:     name,
		Category: cat,
		Seed:     r.next(),
	}
	if cat.Server() {
		p.Funcs = logUniformInt(r, scl(400), scl(3000))
		p.BlocksMin, p.BlocksMax = 8, 18
		p.InstrsMin, p.InstrsMax = 3, 6
		p.LoopFrac = 0.25 + 0.25*r.float()
		p.TripMin, p.TripMax = 2, 10
		p.CondFrac = 0.25
		p.CallFrac = 0.18
		p.IndirectFrac = 0.08
		p.ColdFrac = 0.25
		p.ColdBias = 0.02 + 0.06*r.float()
		p.ZipfTheta = 0.9
		p.DispatchIndirect = true
		p.InitBlocks = logUniformInt(r, scl(100), scl(400))
		// Server workloads fall into regimes, as real server traces do:
		// flush-dominated (a steady working set periodically swept by
		// giant recurring scans: GC passes, log flushes, table walks —
		// where predictive replacement shines), marginal-capacity (a
		// working set slightly over the cache with skewed reuse — where
		// LRU beats Random but prediction has little headroom), and
		// mixed.
		regime := r.float()
		switch {
		case regime < 0.38: // flush-dominated
			p.PhaseFuncs = logUniformInt(r, scl(100), scl(260))
			nScan := r.rangeInt(2, 4)
			p.ScanFrac = float64(nScan) / (float64(p.Funcs) * (1 - p.UtilityFrac))
			p.ScanLenMul = logUniformInt(r, 150, 700)
			// Weight scans inversely to size: each flush event costs a
			// similar instruction share regardless of scan length.
			p.ScanWeight = 35.0 / float64(p.ScanLenMul)
			p.BurstMin, p.BurstMax = 1, r.rangeInt(5, 12)
		case regime < 0.82: // marginal capacity
			p.PhaseFuncs = logUniformInt(r, scl(260), scl(650))
			p.ZipfTheta = 0.7
			p.ScanFrac = 0
			p.ScanLenMul = 1
			p.BurstMin, p.BurstMax = 1, r.rangeInt(2, 4)
		default: // mixed
			p.PhaseFuncs = logUniformInt(r, scl(150), scl(450))
			nScan := r.rangeInt(1, 2)
			p.ScanFrac = float64(nScan) / (float64(p.Funcs) * (1 - p.UtilityFrac))
			p.ScanLenMul = logUniformInt(r, 100, 400)
			p.ScanWeight = 35.0 / float64(p.ScanLenMul)
			p.BurstMin, p.BurstMax = 1, r.rangeInt(3, 8)
		}
		if p.PhaseFuncs > p.Funcs {
			p.PhaseFuncs = p.Funcs
		}
	} else {
		p.Funcs = logUniformInt(r, scl(60), scl(500))
		p.BlocksMin, p.BlocksMax = 6, 14
		p.InstrsMin, p.InstrsMax = 4, 12
		p.LoopFrac = 0.5 + 0.4*r.float()
		p.TripMin, p.TripMax = 4, 40
		p.CondFrac = 0.25
		p.CallFrac = 0.12
		p.IndirectFrac = 0.05
		p.ColdFrac = 0.15
		p.ColdBias = 0.004 + 0.016*r.float()
		p.PhaseFuncs = int(float64(p.Funcs) * (0.15 + 0.35*r.float()))
		p.ZipfTheta = 0.9
		p.DispatchIndirect = r.float() < 0.3
		p.InitBlocks = logUniformInt(r, scl(50), scl(200))
		nScan := r.intn(3)
		p.ScanFrac = float64(nScan) / (float64(p.Funcs) * (1 - p.UtilityFrac))
		p.ScanLenMul = logUniformInt(r, 30, 150)
		p.ScanWeight = 35.0 / float64(p.ScanLenMul)
		p.BurstMin, p.BurstMax = 1, r.rangeInt(2, 5)
	}
	if p.PhaseFuncs < 2 {
		p.PhaseFuncs = 2
	}
	if cat.Long() {
		p.Phases = r.rangeInt(6, 16)
	} else {
		p.Phases = r.rangeInt(2, 5)
	}

	instrs := uint64(MaxDefaultInstructions / 2)
	if cat.Long() {
		instrs = MaxDefaultInstructions
	}
	return Spec{
		Index:               globalIdx,
		Name:                name,
		Category:            cat,
		Profile:             p,
		DefaultInstructions: instrs,
	}
}

func shortName(cat trace.Category) string {
	switch cat {
	case trace.ShortMobile:
		return "SM"
	case trace.LongMobile:
		return "LM"
	case trace.ShortServer:
		return "SS"
	default:
		return "LS"
	}
}

// logUniformInt draws log-uniformly from [lo, hi], giving the suite a
// heavy-tailed footprint distribution: most workloads small, a tail of
// very large ones, which is what produces the paper's S-curve shape.
func logUniformInt(r *rng, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	x := math.Exp(math.Log(float64(lo)) + r.float()*(math.Log(float64(hi))-math.Log(float64(lo))))
	v := int(math.Round(x))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
