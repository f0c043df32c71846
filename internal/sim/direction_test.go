package sim

import (
	"testing"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/workload"
)

// directionOptions is a reduced suite, large enough for the policies'
// ordering to show.
func directionOptions() Options {
	return Options{
		Workloads: workload.SuiteN(12),
		Scale:     0.25,
	}
}

// Sanity test: a simulated suite's headline keeps the paper's direction
// (GHRP at least matches LRU), so regressions in the policy are caught
// by `go test`.
func TestBenchSuiteDirection(t *testing.T) {
	if testing.Short() {
		t.Skip("suite simulation in -short mode")
	}
	m, err := Run(directionOptions())
	if err != nil {
		t.Fatal(err)
	}
	lru := stats.Mean(m.ICacheMPKI[frontend.PolicyLRU])
	ghrp := stats.Mean(m.ICacheMPKI[frontend.PolicyGHRP])
	if ghrp > lru*1.02 {
		t.Errorf("GHRP mean I-cache MPKI %.3f worse than LRU %.3f", ghrp, lru)
	}
	rnd := stats.Mean(m.ICacheMPKI[frontend.PolicyRandom])
	if rnd < lru*0.95 {
		t.Errorf("Random mean %.3f unexpectedly better than LRU %.3f", rnd, lru)
	}
}
