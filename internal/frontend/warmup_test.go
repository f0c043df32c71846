package frontend

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// onePassKinds are the lanes the one-pass tests replay: enough for a
// three-worker split, with GHRP's shared I-cache/BTB predictor among them.
func onePassKinds() []PolicyKind { return []PolicyKind{PolicyLRU, PolicyGHRP, PolicySRRIP} }

// twoPass is the reference the one-pass warm-up must reproduce: count
// the stream's instructions first, then replay it with the explicit
// limit WarmupFor(total). It returns the results and the tap's Skip.
func twoPass(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target uint64) ([]Result, int, error) {
	total, _, err := CountProgram(cfg, prog, seed, target, StreamOptions{})
	if err != nil {
		return nil, 0, err
	}
	fo, err := NewFanOut(cfg, kinds, cfg.WarmupFor(total))
	if err != nil {
		return nil, 0, err
	}
	var log AccessLog
	fo.TapAccesses(&log)
	res, err := fo.StreamProgram(prog, seed, target, 1, StreamOptions{})
	return res, log.Skip, err
}

// onePass replays the stream once under WarmupFromStream.
func onePass(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target uint64, workers int) ([]Result, int, error) {
	fo, err := NewFanOut(cfg, kinds, WarmupFromStream)
	if err != nil {
		return nil, 0, err
	}
	var log AccessLog
	fo.TapAccesses(&log)
	res, err := fo.StreamProgram(prog, seed, target, workers, StreamOptions{})
	return res, log.Skip, err
}

// requireOnePassMatches fails unless the one-pass replay equals the
// two-pass reference on every Result field and on the tap's Skip.
func requireOnePassMatches(t testing.TB, name string, cfg Config, prog *workload.Program, seed, target uint64, workers int) {
	t.Helper()
	kinds := onePassKinds()
	want, wantSkip, err := twoPass(cfg, kinds, prog, seed, target)
	if err != nil {
		t.Fatalf("%s: two-pass reference: %v", name, err)
	}
	got, gotSkip, err := onePass(cfg, kinds, prog, seed, target, workers)
	if err != nil {
		t.Fatalf("%s: one pass: %v", name, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: lane %d (%v) one pass diverges from two passes:\n got: %+v\nwant: %+v", name, i, kinds[i], got[i], want[i])
		}
	}
	if gotSkip != wantSkip {
		t.Errorf("%s: one pass tapped skip %d, two passes %d", name, gotSkip, wantSkip)
	}
}

// TestOnePassMatchesTwoPass is the population check of the one-pass
// warm-up: over a 240-workload SuiteGen grid, each workload run under one
// combination of two budgets, four warm-up rules (the paper's fraction
// with the cap far above the window, the cap below it, the cap inside
// it, and no warm-up), wrong-path fetch off and injected, prefetch off
// and on, and one and three lane workers, so that every combination
// covers several workloads.
func TestOnePassMatchesTwoPass(t *testing.T) {
	if testing.Short() {
		t.Skip("population test")
	}
	const n = 240
	grid := workload.SuiteGen{N: n}
	var gen workload.Generator
	for i := 0; i < n; i++ {
		spec := grid.At(i)
		prog, err := gen.Generate(spec.Profile)
		if err != nil {
			t.Fatal(err)
		}
		target := []uint64{15_000, 110_000}[i%2]
		cfg := smallConfig()
		rule := []string{"fraction", "cap below", "cap inside", "none"}[i/2%4]
		switch rule {
		case "cap below":
			cfg.WarmupCap = target / 5
		case "cap inside":
			cfg.WarmupCap = cfg.WarmupFor(target)
		case "none":
			cfg.WarmupFraction = 0
		}
		cfg.WrongPath = []WrongPathMode{WrongPathOff, WrongPathInject}[i/8%2]
		cfg.NextLinePrefetch = i/16%2 == 1
		workers := []int{1, 3}[i/32%2]
		name := fmt.Sprintf("%s target %d warm-up %s wrong-path %v prefetch %v workers %d",
			spec.Name, target, rule, cfg.WrongPath, cfg.NextLinePrefetch, workers)
		requireOnePassMatches(t, name, cfg, prog, 1, target, workers)
	}
}

// FuzzOnePassMatchesTwoPass fuzzes the one-pass warm-up against the
// two-pass reference over generated workloads, budgets, wrong-path modes
// and prefetching.
func FuzzOnePassMatchesTwoPass(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint32(20_000), false, false)
	f.Add(uint64(7), uint32(41), uint32(3_000), true, true)
	f.Add(uint64(99), uint32(1000), uint32(150_000), true, false)
	f.Fuzz(func(t *testing.T, seed uint64, index, target uint32, inject, prefetch bool) {
		spec := workload.SuiteGen{N: 1 << 20, Seed: seed}.At(int(index % (1 << 20)))
		prog, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		if inject {
			cfg.WrongPath = WrongPathInject
		}
		cfg.NextLinePrefetch = prefetch
		requireOnePassMatches(t, spec.Name, cfg, prog, 1, 1+uint64(target%200_000), 2)
	})
}

// A fetch run longer than trace.MaxSequentialRun+1 instructions makes
// reconstruction resync at its branch and count 1 instruction, so the
// total falls below target by what such runs drop. At the grid's largest
// footprint the init functions run that long (the executor's task cap
// still lets up to 25,000 instructions through as one record); the window
// must give up what the init function drops. A generated program whose
// repeatedly called functions run that long has no lower bound at all.
func TestOnePassMatchesTwoPassLongRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds footprint-16 programs")
	}
	longInit := func(prog *workload.Program) bool {
		var run uint64
		for _, b := range prog.Funcs[prog.InitFunc].Blocks {
			run += uint64(b.Instrs)
		}
		return run > trace.MaxSequentialRun+1
	}
	grid := workload.SuiteGen{N: 64, FootprintMin: workload.MaxFootprint, FootprintMax: workload.MaxFootprint}
	var gen workload.Generator
	found := 0
	for i := 0; i < grid.N && found < 3; i++ {
		spec := grid.At(i)
		if p := spec.Profile; p.InitBlocks*p.InstrsMax <= trace.MaxSequentialRun+1 {
			continue
		}
		prog, err := gen.Generate(spec.Profile)
		if err != nil {
			t.Fatal(err)
		}
		if !longInit(prog) {
			continue
		}
		found++
		for _, target := range []uint64{5_000, 60_000} {
			name := fmt.Sprintf("%s (init %d blocks) target %d", spec.Name, spec.Profile.InitBlocks, target)
			requireOnePassMatches(t, name, smallConfig(), prog, 1, target, found)
		}
	}
	if found == 0 {
		t.Fatal("no footprint-16 workload has an init function longer than the fetcher infers")
	}

	// Three straight-line functions of 24,000 instructions each, called
	// task after task.
	prog, err := workload.Generate(workload.Profile{
		Name: "long-runs", Funcs: 3, BlocksMin: 3_000, BlocksMax: 3_000, InstrsMin: 8, InstrsMax: 8,
		Phases: 1, PhaseFuncs: 3, TripMin: 1, TripMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []uint64{10_000, 300_000} {
		requireOnePassMatches(t, fmt.Sprintf("long-runs target %d", target), smallConfig(), prog, 1, target, 2)
	}
}

// TestWarmupEndsAfterCrossingRecord pins what warm-up excludes, against
// runs that know nothing of marks: the statistics of a replay under limit
// L plus those of a no-warm-up replay of the stream's prefix through the
// record that crosses L must equal a no-warm-up replay of the whole
// stream, counter for counter, and the tap's Skip must be the prefix's
// length. Every decision of the crossing record (its accesses, wrong-path
// fetch, BTB probe and predictions) belongs to warm-up. The limits sweep
// the stream so that crossing records of every kind occur.
func TestWarmupEndsAfterCrossingRecord(t *testing.T) {
	recs := testRecords(t, 30_000)
	cfg := smallConfig()
	cfg.WrongPath, cfg.NextLinePrefetch = WrongPathInject, true
	kinds := onePassKinds()
	replay := func(limit uint64, recs []trace.Record) ([]Result, AccessLog) {
		fo, err := NewFanOut(cfg, kinds, limit)
		if err != nil {
			t.Fatal(err)
		}
		var log AccessLog
		fo.TapAccesses(&log)
		for _, r := range recs {
			fo.Process(r)
		}
		return fo.Results(), log
	}
	full, _ := replay(0, recs)
	f, err := trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	var instrs uint64
	next := uint64(1)
	for c, r := range recs {
		before := instrs
		instrs += f.Advance(r).Instrs
		if instrs < next {
			continue
		}
		limit := before + 1 // the lowest limit record c crosses
		next = instrs + 997
		got, log := replay(limit, recs)
		prefix, prefixLog := replay(0, recs[:c+1])
		for i := range got {
			sum := addCounters(got[i], prefix[i])
			sum.TotalInstructions, sum.Records = full[i].TotalInstructions, full[i].Records
			if sum != full[i] {
				t.Fatalf("limit %d (record %d): warm-up plus counted statistics differ from the whole stream's for %v:\n  sum: %+v\nwhole: %+v",
					limit, c, kinds[i], sum, full[i])
			}
		}
		if log.Skip != len(prefixLog.Blocks) {
			t.Fatalf("limit %d (record %d): tap skip %d, prefix logged %d blocks", limit, c, log.Skip, len(prefixLog.Blocks))
		}
	}
}

// addCounters adds every counter of b to a's, field by field (the
// inverse of what Results does, written separately as its check).
func addCounters(a, b Result) Result {
	var add func(x, y reflect.Value)
	add = func(x, y reflect.Value) {
		for i := 0; i < x.NumField(); i++ {
			if f := x.Field(i); f.Kind() == reflect.Struct {
				add(f, y.Field(i))
			} else if f.Kind() == reflect.Uint64 {
				f.SetUint(f.Uint() + y.Field(i).Uint())
			}
		}
	}
	add(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
	return a
}

// chainProgram is a hand-built program whose longest fetch group is one
// record's run of fall-through blocks. Function 0 calls function 1, which
// recurses until the executor's call-depth limit turns its call into a
// fall-through. Back in function 0, a 500- and a 300-instruction block
// run into its return: an 801-instruction fetch group, the longest the
// program has. Its code is 808 instructions, which bounds the group of a
// program built by hand.
func chainProgram() *workload.Program {
	blocks := func(addr uint64, bs ...workload.Block) []workload.Block {
		for i := range bs {
			bs[i].Addr = addr
			addr += uint64(bs[i].Instrs) * workload.InstrBytes
		}
		return bs
	}
	return &workload.Program{
		Name: "chain",
		Funcs: []workload.Function{
			{Blocks: blocks(0x2000,
				workload.Block{Instrs: 2, Term: workload.TermCall, Callee: 1},
				workload.Block{Instrs: 500, Term: workload.TermFall},
				workload.Block{Instrs: 300, Term: workload.TermFall},
				workload.Block{Instrs: 1, Term: workload.TermReturn})},
			{Blocks: blocks(0x4000,
				workload.Block{Instrs: 3, Term: workload.TermCall, Callee: 1},
				workload.Block{Instrs: 2, Term: workload.TermReturn})},
		},
		InitFunc:     -1,
		Phases:       []workload.Phase{{Funcs: []int{0}, Weights: []float64{1}}},
		DispatchAddr: 0x1000,
	}
}

// The stream window holds on a program built to reach its edges: for
// every target up to several tasks long, the reconstructed total lies
// in Program.FetchBounds, some target meets its lower bound, and the targets
// that end on the long chain bring the total within a few instructions
// of the upper bound.
func TestStreamWindowBoundsChainProgram(t *testing.T) {
	prog := chainProgram()
	if _, hi := prog.FetchBounds(1000); hi != 1000+808-2 {
		t.Fatalf("FetchBounds(1000) tops out at %d, want a longest group of 808, the program's code", hi)
	}
	cfg := DefaultConfig()
	closestLo, closest := ^uint64(0), ^uint64(0)
	for target := uint64(1); target <= 4_000; target++ {
		total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := prog.FetchBounds(target)
		if total < lo || total > hi {
			t.Fatalf("target %d: total %d outside window [%d, %d]", target, total, lo, hi)
		}
		closestLo, closest = min(closestLo, total-lo), min(closest, hi-total)
	}
	if closestLo != 0 {
		t.Errorf("no target met the window's lower bound (closest %d above)", closestLo)
	}
	// The chain's group is the code less the call site's 2 instructions
	// and function 1's 5, and the executor's lead keeps 2 more below
	// target.
	if closest > 9 {
		t.Errorf("no target ended within 9 instructions of the window's top (closest %d)", closest)
	}
	for _, target := range []uint64{1, 777, 2_345} {
		requireOnePassMatches(t, fmt.Sprintf("chain target %d", target), cfg, prog, 1, target, 1)
	}
}

// A stream whose total falls outside the window its program implies is
// an error naming the program, never a fallback. A gap between two
// blocks of a function makes fetch reconstruction count instructions
// the executor never ran, so the total overshoots the window.
func TestStreamWindowViolationNamesWorkload(t *testing.T) {
	prog := &workload.Program{
		Name: "gapped",
		Funcs: []workload.Function{{Blocks: []workload.Block{
			{Addr: 0x2000, Instrs: 4, Term: workload.TermFall},
			{Addr: 0x3000, Instrs: 1, Term: workload.TermReturn},
		}}},
		InitFunc:     -1,
		Phases:       []workload.Phase{{Funcs: []int{0}, Weights: []float64{1}}},
		DispatchAddr: 0x1000,
	}
	fo, err := NewFanOut(DefaultConfig(), []PolicyKind{PolicyLRU}, WarmupFromStream)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fo.StreamProgram(prog, 1, 10_000, 1, StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), "gapped") || !strings.Contains(err.Error(), "warm-up window") {
		t.Fatalf("StreamProgram err = %v, want a warm-up window error naming the program", err)
	}
}

// WarmupFromStream needs a stream's target: record-level replay under it
// panics rather than count statistics against an unknown window.
func TestWarmupFromStreamNeedsStream(t *testing.T) {
	recs := testRecords(t, 5_000)
	for name, use := range map[string]func(*FanOut){
		"Process": func(fo *FanOut) { fo.Process(recs[0]) },
		"Results": func(fo *FanOut) { fo.Results() },
	} {
		fo, err := NewFanOut(smallConfig(), []PolicyKind{PolicyLRU}, WarmupFromStream)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if p := recover(); p == nil || !errors.Is(p.(error), errNoWindow) {
					t.Errorf("%s under WarmupFromStream: recovered %v, want errNoWindow", name, p)
				}
			}()
			use(fo)
		}()
	}
}
