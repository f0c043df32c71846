package workload

import (
	"slices"
	"testing"
	"testing/quick"

	"ghrpsim/internal/trace"
)

// tinyProfile is a fast-to-execute profile for tests.
func tinyProfile(seed uint64) Profile {
	return Profile{
		Name:       "tiny",
		Category:   trace.ShortMobile,
		Seed:       seed,
		Funcs:      12,
		BlocksMin:  4,
		BlocksMax:  8,
		InstrsMin:  3,
		InstrsMax:  10,
		LoopFrac:   0.7,
		TripMin:    4,
		TripMax:    20,
		CondFrac:   0.3,
		CallFrac:   0.2,
		ColdFrac:   0.2,
		ColdBias:   0.01,
		Phases:     2,
		PhaseFuncs: 4,
		InitBlocks: 6,
	}
}

func TestProfileValidate(t *testing.T) {
	good := tinyProfile(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile: %v", err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Funcs = 0 },
		func(p *Profile) { p.BlocksMin = 1 },
		func(p *Profile) { p.BlocksMax = p.BlocksMin - 1 },
		func(p *Profile) { p.InstrsMin = 0 },
		func(p *Profile) { p.Phases = 0 },
		func(p *Profile) { p.PhaseFuncs = 0 },
		func(p *Profile) { p.TripMin = 0 },
	}
	for i, mutate := range bad {
		p := tinyProfile(1)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d validated, want error", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	prog, err := Generate(tinyProfile(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("generated program invalid: %v", err)
	}
	if prog.InitFunc < 0 {
		t.Error("init function missing despite InitBlocks > 0")
	}
	if prog.CodeBytes() == 0 || prog.StaticBranches() == 0 {
		t.Error("degenerate program")
	}
	// Function addresses must be disjoint and increasing.
	var prevEnd uint64
	for fi := range prog.Funcs {
		for bi := range prog.Funcs[fi].Blocks {
			b := &prog.Funcs[fi].Blocks[bi]
			if b.Addr < prevEnd {
				t.Fatalf("function %d block %d overlaps previous code (%#x < %#x)", fi, bi, b.Addr, prevEnd)
			}
			prevEnd = b.Addr + uint64(b.Instrs)*InstrBytes
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(tinyProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tinyProfile(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.CodeBytes() != b.CodeBytes() || a.StaticBranches() != b.StaticBranches() {
		t.Error("same seed produced different programs")
	}
	c, err := Generate(tinyProfile(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.CodeBytes() == c.CodeBytes() && a.StaticBranches() == c.StaticBranches() {
		t.Log("warning: different seeds produced structurally identical programs")
	}
}

func TestExecutorEmitsValidRecords(t *testing.T) {
	prog, err := Generate(tinyProfile(9))
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	n, err := Emit(prog, 1, 20000, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || uint64(len(recs)) != n {
		t.Fatalf("emitted %d records, callback saw %d", n, len(recs))
	}
	for i, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("record %d invalid: %v (%+v)", i, err, r)
		}
	}
}

func TestExecutorControlFlowConsistency(t *testing.T) {
	// The record stream must be consistent with sequential execution:
	// each record's PC must be reachable from the previous record's next
	// PC by a forward sequential walk (same property the trace Fetcher
	// relies on).
	prog, err := Generate(tinyProfile(11))
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.NewFetcher(InstrBytes, 64)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	_, err = Emit(prog, 3, 30000, func(r trace.Record) error {
		total += f.Advance(r).Instrs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Resyncs() != 0 {
		t.Errorf("%d fetch discontinuities: executor emits inconsistent control flow", f.Resyncs())
	}
	if total == 0 {
		t.Error("no instructions reconstructed")
	}
}

func TestExecutorDeterministic(t *testing.T) {
	prog, err := Generate(tinyProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []trace.Record {
		var recs []trace.Record
		if _, err := Emit(prog, 99, 5000, func(r trace.Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestExecutorInstructionBudget(t *testing.T) {
	prog, err := Generate(tinyProfile(13))
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExecutor(prog, 1, func(trace.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	const target = 10000
	if err := x.Run(target); err != nil {
		t.Fatal(err)
	}
	got := x.Instructions()
	if got < target {
		t.Errorf("executed %d instructions, want >= %d", got, target)
	}
	if got > target*2 {
		t.Errorf("executed %d instructions, way over target %d", got, target)
	}
}

func TestExecutorZeroTarget(t *testing.T) {
	prog, err := Generate(tinyProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExecutor(prog, 1, func(trace.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Run(0); err == nil {
		t.Error("zero target accepted")
	}
}

// loopProgram lays out hand-built functions back to back (four
// instructions per block) behind a dispatcher whose single phase calls
// entries with equal weight.
func loopProgram(funcs [][]Block, entries ...int) *Program {
	p := &Program{Name: "loop", Category: trace.ShortMobile, InitFunc: -1, DispatchAddr: codeBase}
	addr := codeBase + dispatchBytes
	for _, blocks := range funcs {
		for bi := range blocks {
			blocks[bi].Addr = addr
			blocks[bi].Instrs = 4
			addr += 4 * InstrBytes
		}
		p.Funcs = append(p.Funcs, Function{Blocks: blocks})
	}
	weights := make([]float64, len(entries))
	for i := range weights {
		weights[i] = 1
	}
	p.Phases = []Phase{{Funcs: entries, Weights: weights}}
	return p
}

// Every counted loop's back branch is taken exactly TripCount times per
// exit, whether the executor lays the program out itself (hand-built,
// no layout) or reuses a layout built ahead of it as Generate does. The
// counter belongs to the loop, not to the call path that reached it.
func TestCountedLoopTripCount(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
	}{
		{"one loop", loopProgram([][]Block{{
			{Term: TermFall},
			{Term: TermCond, Target: 1, TripCount: 5},
			{Term: TermReturn},
		}}, 0)},
		{"two loops in one function", loopProgram([][]Block{{
			{Term: TermFall},
			{Term: TermCond, Target: 1, TripCount: 3},
			{Term: TermFall},
			{Term: TermCond, Target: 2, TripCount: 7},
			{Term: TermReturn},
		}}, 0)},
		{"utility loop from several callers", loopProgram([][]Block{
			{ // the utility
				{Term: TermFall},
				{Term: TermCond, Target: 0, TripCount: 4},
				{Term: TermReturn},
			},
			{{Term: TermCall, Callee: 0}, {Term: TermReturn}},
			{{Term: TermFall}, {Term: TermCall, Callee: 0}, {Term: TermCall, Callee: 0}, {Term: TermReturn}},
			{{Term: TermCond, Target: 0, TripCount: 2}, {Term: TermCall, Callee: 0}, {Term: TermReturn}},
		}, 1, 2, 3)},
	}
	type counts struct{ taken, notTaken int }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err != nil {
				t.Fatal(err)
			}
			laidOut := *tc.prog
			laidOut.layout = new(blockLayout)
			laidOut.layout.build(&laidOut)
			var streams [2][]trace.Record
			for mode, p := range []*Program{tc.prog, &laidOut} {
				_, err := Emit(p, 1, 20_000, func(r trace.Record) error {
					streams[mode] = append(streams[mode], r)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(streams[0], streams[1]) {
				t.Fatal("executor on a prebuilt layout diverges from one that lays the program out itself")
			}
			byPC := map[uint64]*counts{}
			for _, r := range streams[0] {
				if r.Type != trace.CondDirect {
					continue
				}
				c := byPC[r.PC]
				if c == nil {
					c = &counts{}
					byPC[r.PC] = c
				}
				if r.Taken {
					c.taken++
				} else {
					c.notTaken++
				}
			}
			loops := 0
			for _, f := range tc.prog.Funcs {
				for _, b := range f.Blocks {
					if b.TripCount == 0 {
						continue
					}
					loops++
					c := byPC[b.LastPC()]
					if c == nil || c.notTaken == 0 {
						t.Fatalf("loop at %#x never exited", b.LastPC())
					}
					// Taken TripCount times per exit, plus at most one
					// unfinished pass when the budget ran out.
					if extra := c.taken - b.TripCount*c.notTaken; extra < 0 || extra > b.TripCount {
						t.Errorf("loop at %#x: taken %d, not taken %d, want %d taken per exit",
							b.LastPC(), c.taken, c.notTaken, b.TripCount)
					}
				}
			}
			if got := len(laidOut.layout.trips); got != loops {
				t.Errorf("layout holds %d loop counters, want %d", got, loops)
			}
		})
	}
}

func TestSuiteComposition(t *testing.T) {
	specs := Suite()
	if len(specs) != SuiteSize {
		t.Fatalf("suite has %d workloads, want %d", len(specs), SuiteSize)
	}
	counts := map[trace.Category]int{}
	names := map[string]bool{}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has index %d", i, s.Index)
		}
		counts[s.Category]++
		if names[s.Name] {
			t.Fatalf("duplicate workload name %q", s.Name)
		}
		names[s.Name] = true
		if err := s.Profile.Validate(); err != nil {
			t.Fatalf("workload %s profile invalid: %v", s.Name, err)
		}
		if s.DefaultInstructions == 0 {
			t.Fatalf("workload %s has zero default instructions", s.Name)
		}
	}
	if counts[trace.ShortMobile] != nShortMobile || counts[trace.LongMobile] != nLongMobile ||
		counts[trace.ShortServer] != nShortServer || counts[trace.LongServer] != nLongServer {
		t.Errorf("category counts %v", counts)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, b := Suite(), Suite()
	for i := range a {
		if a[i].Profile.Seed != b[i].Profile.Seed || a[i].Name != b[i].Name {
			t.Fatalf("suite not deterministic at %d", i)
		}
	}
}

func TestSuiteN(t *testing.T) {
	sub := SuiteN(20)
	if len(sub) != 20 {
		t.Fatalf("SuiteN(20) returned %d", len(sub))
	}
	cats := map[trace.Category]bool{}
	for _, s := range sub {
		cats[s.Category] = true
	}
	if len(cats) != 4 {
		t.Errorf("subsample covers %d categories, want 4", len(cats))
	}
	if got := len(SuiteN(100000)); got != SuiteSize {
		t.Errorf("oversized SuiteN returned %d", got)
	}
	if got := len(SuiteN(0)); got != 1 {
		t.Errorf("SuiteN(0) returned %d", got)
	}
}

func TestSuiteFootprintSpread(t *testing.T) {
	// Server workloads must have larger code footprints than mobile on
	// average, and the suite must include both cache-fitting and
	// cache-overflowing footprints relative to 64KB.
	var mobile, server, nm, ns float64
	small, large := 0, 0
	for _, s := range SuiteN(60) {
		prog, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		kb := float64(prog.CodeBytes()) / 1024
		if s.Category.Server() {
			server += kb
			ns++
		} else {
			mobile += kb
			nm++
		}
		if kb < 64 {
			small++
		} else {
			large++
		}
	}
	if server/ns <= mobile/nm {
		t.Errorf("server mean %.0fKB <= mobile mean %.0fKB", server/ns, mobile/nm)
	}
	if small == 0 || large == 0 {
		t.Errorf("footprints not spread across 64KB: %d small, %d large", small, large)
	}
}

func TestRNGHelpers(t *testing.T) {
	r := newRNG(0)
	if r.next() == 0 {
		t.Error("zero seed produced zero stream")
	}
	if got := r.rangeInt(5, 5); got != 5 {
		t.Errorf("degenerate range = %d", got)
	}
	if got := r.rangeInt(7, 3); got != 7 {
		t.Errorf("inverted range = %d", got)
	}
	if r.intn(0) != 0 {
		t.Error("intn(0) must be 0")
	}
	f := func(seed uint64) bool {
		rr := newRNG(seed)
		v := rr.float()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 0, 1}
	for i := 0; i < 20; i++ {
		if got := r.pick(w); got != 2 {
			t.Fatalf("pick chose zero-weight index %d", got)
		}
	}
	z := []float64{0, 0}
	if got := r.pick(z); got < 0 || got > 1 {
		t.Errorf("pick on zero weights = %d", got)
	}
}

func TestLogUniformInt(t *testing.T) {
	r := newRNG(3)
	for i := 0; i < 1000; i++ {
		v := logUniformInt(r, 10, 1000)
		if v < 10 || v > 1000 {
			t.Fatalf("logUniformInt out of range: %d", v)
		}
	}
	if logUniformInt(r, 5, 5) != 5 {
		t.Error("degenerate log-uniform range")
	}
}

// TestEmittedAddressesInstructionAligned checks the premise the BTB is
// built on: it tags entries with the instruction index pc/InstrBytes,
// which names a branch exactly only when every branch PC is a multiple
// of the instruction size. Taken targets start the next fetch, so they
// must be aligned too. Both the fixed table and a generated grid are
// sampled.
func TestEmittedAddressesInstructionAligned(t *testing.T) {
	specs := append(SuiteN(24), Materialize(SuiteGen{N: 24})...)
	for _, s := range specs {
		p, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		_, err = Emit(p, uint64(s.Index)+1, 50_000, func(r trace.Record) error {
			if r.PC%InstrBytes != 0 || (r.Taken && r.Target%InstrBytes != 0) {
				t.Fatalf("%s record %d: PC %#x target %#x taken %v not %d-byte aligned", s.Name, n, r.PC, r.Target, r.Taken, InstrBytes)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s emitted no records", s.Name)
		}
	}
}
