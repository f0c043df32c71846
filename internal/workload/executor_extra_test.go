package workload

import (
	"errors"
	"slices"
	"testing"

	"ghrpsim/internal/trace"
)

func TestFind(t *testing.T) {
	spec, err := Find("SM-001")
	if err != nil || spec.Name != "SM-001" {
		t.Fatalf("Find = %+v, %v", spec.Name, err)
	}
	if _, err := Find("NOPE-999"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestEmitSinkErrorAborts(t *testing.T) {
	prog, err := Generate(tinyProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	sinkErr := errors.New("sink full")
	n := 0
	_, err = Emit(prog, 1, 100000, func(trace.Record) error {
		n++
		if n >= 5 {
			return sinkErr
		}
		return nil
	})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if n != 5 {
		t.Errorf("sink called %d times after error, want 5", n)
	}
}

func TestProgramValidateRejections(t *testing.T) {
	base := func() *Program {
		return &Program{
			Name:         "v",
			InitFunc:     -1,
			DispatchAddr: codeBase,
			Funcs: []Function{{
				Blocks: []Block{
					{Addr: 0x1000, Instrs: 4, Term: TermFall},
					{Addr: 0x1010, Instrs: 4, Term: TermReturn},
				},
			}},
			Phases: []Phase{{Funcs: []int{0}, Weights: []float64{1}}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"no functions", func(p *Program) { p.Funcs = nil }},
		{"no blocks", func(p *Program) { p.Funcs[0].Blocks = nil }},
		{"zero instrs", func(p *Program) { p.Funcs[0].Blocks[0].Instrs = 0 }},
		{"falls off end", func(p *Program) { p.Funcs[0].Blocks[1].Term = TermFall }},
		{"cond target range", func(p *Program) {
			p.Funcs[0].Blocks[0].Term = TermCond
			p.Funcs[0].Blocks[0].Target = 9
		}},
		{"callee range", func(p *Program) {
			p.Funcs[0].Blocks[0].Term = TermCall
			p.Funcs[0].Blocks[0].Callee = 7
		}},
		{"call at end", func(p *Program) {
			p.Funcs[0].Blocks[1].Term = TermCall
			p.Funcs[0].Blocks[1].Callee = 0
			p.Funcs[0].Blocks[0].Term = TermReturn
		}},
		{"indirect no callees", func(p *Program) {
			p.Funcs[0].Blocks[0].Term = TermIndirectCall
		}},
		{"indirect callee range", func(p *Program) {
			p.Funcs[0].Blocks[0].Term = TermIndirectCall
			p.Funcs[0].Blocks[0].Callees = []int{42}
		}},
		{"indirect at end", func(p *Program) {
			p.Funcs[0].Blocks[1].Term = TermIndirectCall
			p.Funcs[0].Blocks[1].Callees = []int{0}
			p.Funcs[0].Blocks[0].Term = TermReturn
		}},
		{"no return", func(p *Program) { p.Funcs[0].Blocks[1].Term = TermJump; p.Funcs[0].Blocks[1].Target = 0 }},
		{"bad terminator", func(p *Program) { p.Funcs[0].Blocks[0].Term = TermKind(99) }},
		{"init out of range", func(p *Program) { p.InitFunc = 5 }},
		{"no phases", func(p *Program) { p.Phases = nil }},
		{"phase malformed", func(p *Program) { p.Phases[0].Weights = nil }},
		{"phase func range", func(p *Program) { p.Phases[0].Funcs = []int{3} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("invalid program validated")
			}
			if _, err := NewExecutor(p, 1, nil); err == nil {
				t.Error("executor accepted an invalid hand-built program")
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base program invalid: %v", err)
	}
}

// A generated program's executors reuse the layout Generate validated;
// they must emit exactly the stream an executor that validates and lays
// the program out itself emits.
func TestGeneratedLayoutMatchesValidated(t *testing.T) {
	prog, err := Generate(tinyProfile(4))
	if err != nil {
		t.Fatal(err)
	}
	if prog.layout == nil {
		t.Fatal("Generate kept no layout")
	}
	hand := *prog
	hand.layout = nil
	emit := func(p *Program) []trace.Record {
		var recs []trace.Record
		if _, err := Emit(p, 7, 50_000, func(r trace.Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	if !slices.Equal(emit(prog), emit(&hand)) {
		t.Error("executor on the generated layout diverges from a validated one")
	}
}

func TestTaskCapBoundsTasks(t *testing.T) {
	// A pathological profile (deep nesting, big trips) must still emit a
	// valid, budget-respecting trace thanks to the task cap.
	prof := Profile{
		Name: "patho", Seed: 5,
		Funcs: 30, BlocksMin: 8, BlocksMax: 12, InstrsMin: 4, InstrsMax: 8,
		LoopFrac: 1.0, TripMin: 30, TripMax: 60,
		CallFrac: 0.5, CondFrac: 0.1,
		Phases: 2, PhaseFuncs: 10,
	}
	prog, err := Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.NewFetcher(InstrBytes, 64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewExecutor(prog, 1, func(r trace.Record) error {
		f.Advance(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 300_000
	if err := x.Run(target); err != nil {
		t.Fatal(err)
	}
	if f.Resyncs() != 0 {
		t.Errorf("%d control-flow discontinuities with task caps", f.Resyncs())
	}
	if got := x.Instructions(); got > target+defaultTaskCap*2 {
		t.Errorf("executed %d instructions, cap leak past target %d", got, target)
	}
}

func TestUtilityForSingleFunction(t *testing.T) {
	p := Profile{Funcs: 1, UtilityFrac: 0.15}
	r := newRNG(1)
	if got := utilityFor(&p, r); got != 0 {
		t.Errorf("utilityFor = %d, want 0", got)
	}
}

func TestScanSegmentsNeverCallees(t *testing.T) {
	prof := tinyProfile(9)
	prof.Funcs = 40
	prof.ScanFrac = 0.2
	prof.UtilityFrac = 0.2
	prof.CallFrac = 0.5
	prog, err := Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	scan := map[int]bool{}
	for fi, f := range prog.Funcs {
		if f.Scan {
			scan[fi] = true
		}
	}
	if len(scan) == 0 {
		t.Skip("no scans generated")
	}
	for fi, f := range prog.Funcs {
		for bi, b := range f.Blocks {
			switch b.Term {
			case TermCall:
				if scan[b.Callee] {
					t.Fatalf("function %d block %d calls scan %d", fi, bi, b.Callee)
				}
			case TermIndirectCall:
				for _, c := range b.Callees {
					if scan[c] {
						t.Fatalf("function %d block %d indirect-calls scan %d", fi, bi, c)
					}
				}
			}
		}
	}
}
