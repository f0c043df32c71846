package ghrpsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"testing"
	"time"
)

func TestFacadeSimulation(t *testing.T) {
	spec := SuiteN(8)[4]
	prog, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	total, _, err := CountProgram(cfg, prog, 1, 30_000, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := SimulateFanOut(cfg, PaperPolicies(), prog, 1, 30_000, cfg.WarmupFor(total), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, kind := range PaperPolicies() {
		if res := results[i]; res.CountedInstrs == 0 {
			t.Errorf("%v: zero counted instructions", kind)
		}
	}
}

func TestFacadeParsePolicy(t *testing.T) {
	k, err := ParsePolicy("ghrp")
	if err != nil || k != PolicyGHRP {
		t.Fatalf("ParsePolicy = %v, %v", k, err)
	}
}

func TestFacadeSuite(t *testing.T) {
	if len(Suite()) != SuiteSize {
		t.Fatalf("Suite() size %d", len(Suite()))
	}
	if got := len(SuiteN(10)); got != 10 {
		t.Fatalf("SuiteN(10) size %d", got)
	}
}

func TestFacadeRun(t *testing.T) {
	m, err := Run(Options{Workloads: SuiteN(4), Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ICacheMPKI[PolicyGHRP]) != 4 {
		t.Fatalf("measurement shape %d", len(m.ICacheMPKI[PolicyGHRP]))
	}
}

func TestFacadeRunContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Options{Workloads: SuiteN(2), Scale: 0.02}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	var ticks int
	m, err := RunContext(context.Background(), Options{
		Workloads:     SuiteN(2),
		Scale:         0.02,
		ProgressEvery: 512,
		Observer: Multi(NewRunProgress(io.Discard, time.Hour), func(e RunEvent) {
			if e.Kind == RunTick {
				ticks++
			}
		}),
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats == nil || m.Stats.TotalRecords() == 0 {
		t.Fatalf("run stats missing: %+v", m.Stats)
	}
	if ticks == 0 {
		t.Error("observer saw no tick events")
	}
}

func TestFacadeEngineAccess(t *testing.T) {
	fo, err := NewFanOut(DefaultConfig(), []PolicyKind{PolicyGHRP}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fo.GHRP(0) == nil {
		t.Fatal("GHRP internals not exposed")
	}
	st := GHRPConfig{}.StorageFor(1024)
	if st.TotalBits == 0 {
		t.Fatal("storage computation empty")
	}
	var _ GHRPStorage = st
}

func TestFacadeProgramGeneration(t *testing.T) {
	prof := Profile{
		Name: "api-test", Seed: 1,
		Funcs: 20, BlocksMin: 4, BlocksMax: 8, InstrsMin: 3, InstrsMax: 8,
		LoopFrac: 0.5, TripMin: 2, TripMax: 10,
		Phases: 2, PhaseFuncs: 8,
	}
	prog, err := GenerateProgram(prof)
	if err != nil {
		t.Fatal(err)
	}
	if prog.CodeBytes() == 0 {
		t.Fatal("empty program")
	}
}

// Example demonstrates the one-pass comparison of LRU and GHRP that the
// README shows.
func Example() {
	spec := SuiteN(8)[4]
	prog, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	cfg := DefaultConfig()
	total, _, err := CountProgram(cfg, prog, 1, 20_000, StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	kinds := []PolicyKind{PolicyLRU, PolicyGHRP}
	res, err := SimulateFanOut(cfg, kinds, prog, 1, 20_000, cfg.WarmupFor(total), StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res[0].Policy, res[1].Policy)
	// Output: LRU GHRP
}
