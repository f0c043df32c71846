package workload

import (
	"math"
	"testing"
)

// FuzzSuiteGenValidate attacks the generated-suite grid, which daemons
// accept from untrusted submissions. A grid that passes Validate (after
// WithDefaults, as the daemon applies them) must synthesize its first
// and last workloads without panicking, each with a profile that passes
// Profile.Validate and a footprint multiplier inside the grid's bounds
// (to a relative 1e-12: the log-spaced sweep's exp(log(Max)) may round
// a few ulps past Max). The first workload's program must also
// generate, at a size MaxFootprint keeps affordable, and pass
// Program.Validate, which Generate itself no longer runs.
func FuzzSuiteGenValidate(f *testing.F) {
	f.Add(5, uint64(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
	f.Add(2000, uint64(7), 1.0, 0.0, 0.0, 3.0, 0.2, 1.0, 8)
	f.Add(1, uint64(1), 0.0, 0.0, 1e308, 1e308, 1e-300, 1e300, 2)
	f.Add(math.MaxInt, uint64(math.MaxUint64), 0.5, 0.5, 0.5, 0.5, 4.0, 4.0, math.MaxInt)
	// One generator for every input, as a sim worker keeps one.
	var gen Generator
	f.Fuzz(func(t *testing.T, n int, seed uint64, sm, lm, ss, ls, fmin, fmax float64, steps int) {
		g := SuiteGen{N: n, Seed: seed,
			Mix:          Mix{ShortMobile: sm, LongMobile: lm, ShortServer: ss, LongServer: ls},
			FootprintMin: fmin, FootprintMax: fmax, FootprintSteps: steps}.WithDefaults()
		if g.Validate() != nil {
			return
		}
		for _, i := range []int{0, g.N - 1} {
			spec := g.At(i)
			if err := spec.Profile.Validate(); err != nil {
				t.Fatalf("At(%d) of a valid grid %+v: %v", i, g, err)
			}
			const slack = 1e-12
			if m := g.footprintAt(i); !(m >= g.FootprintMin*(1-slack) && m <= g.FootprintMax*(1+slack)) {
				t.Fatalf("At(%d) of a valid grid %+v: footprint %v outside [%v, %v]", i, g, m, g.FootprintMin, g.FootprintMax)
			}
		}
		prog, err := gen.Generate(g.At(0).Profile)
		if err != nil {
			t.Fatalf("At(0) of a valid grid %+v: %v", g, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("At(0) of a valid grid %+v: generated program invalid: %v", g, err)
		}
	})
}
