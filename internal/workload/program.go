// Package workload synthesizes CBP5-like branch traces. The paper's 662
// industrial traces are proprietary, so this package substitutes
// deterministic, seeded synthetic programs: control-flow graphs with hot
// loops, call chains, phase changes, one-shot initialization code, rare
// error paths, and indirect dispatch. Executing a program emits the
// branch-record stream the front-end simulator consumes; the structures
// are exactly those that create path-correlated block reuse and death in
// real instruction streams, which is the behavior GHRP exploits.
package workload

import (
	"fmt"

	"ghrpsim/internal/trace"
)

// InstrBytes is the fixed instruction size of synthesized programs.
const InstrBytes = 4

// TermKind is a basic block's terminator class.
type TermKind uint8

const (
	// TermFall falls through to the next block: no branch record.
	TermFall TermKind = iota
	// TermCond is a conditional branch to Target with probability Bias.
	TermCond
	// TermJump unconditionally jumps to Target.
	TermJump
	// TermCall calls function Callee, resuming at the next block.
	TermCall
	// TermIndirectCall calls one of Callees, chosen per execution.
	TermIndirectCall
	// TermReturn returns to the caller.
	TermReturn
)

// Block is one basic block: Instrs instructions ending in Term.
type Block struct {
	Addr   uint64
	Instrs int
	Term   TermKind
	// Target is the in-function block index for TermCond/TermJump.
	Target int
	// Bias is the taken probability for TermCond.
	Bias float64
	// Callee is the program function index for TermCall.
	Callee int
	// Callees are the candidate function indices for TermIndirectCall.
	Callees []int
	// TripCount, when positive, makes a TermCond backward branch behave
	// as a counted loop: taken TripCount times, then not taken once.
	TripCount int
}

// LastPC returns the address of the block's final (terminator)
// instruction.
func (b *Block) LastPC() uint64 {
	return b.Addr + uint64(b.Instrs-1)*InstrBytes
}

// Function is a contiguous sequence of blocks; entry is block 0 and
// execution leaves through a TermReturn block.
type Function struct {
	Blocks []Block
	// Scan marks a straight-line scan function: the dispatcher never
	// bursts scans (a log pass or table walk does not immediately
	// repeat), keeping their blocks dead on arrival.
	Scan bool
}

// Entry returns the function's entry address.
func (f *Function) Entry() uint64 { return f.Blocks[0].Addr }

// Phase describes one program phase: a weighted working set of function
// indices the dispatcher calls during that phase.
type Phase struct {
	Funcs   []int
	Weights []float64
}

// Program is a synthesized program: functions, an initialization
// function run once, and a phase schedule driven by the dispatcher loop.
//
// A generated program carries its block layout, and every Executor of
// it reuses that layout; such a program must not be modified
// afterwards. The generator's output is valid by construction (tests
// validate every program of the suite and a generated grid), so only
// programs built by hand are validated, by each NewExecutor. A program from
// Generator.Generate lives in the Generator's storage: it and its
// executors stay valid only until the next Generate call on that
// Generator. The package-level Generate returns a program that stays
// valid for good.
type Program struct {
	Name     string
	Category trace.Category
	Funcs    []Function
	// InitFunc indexes the one-shot initialization function, or -1.
	InitFunc int
	// Phases is the dispatcher's phase schedule.
	Phases []Phase
	// DispatchAddr is the address of the dispatcher's call site.
	DispatchAddr uint64
	// DispatchIndirect makes the dispatcher use indirect calls.
	DispatchIndirect bool
	// BurstMin/BurstMax bound how many consecutive times the dispatcher
	// repeats one sampled function (see Profile). Values below 1 mean 1.
	BurstMin, BurstMax int

	// layout is set by Generate; nil for programs built by hand.
	layout *blockLayout
	// runs summarizes the program's fetch runs (Generator.place); set by
	// Generate, zero for programs built by hand.
	runs fetchRuns
}

// fetchRuns summarizes a program's fetch runs for FetchBounds. A run is
// the most instructions one record can fetch: blocks up to one whose
// branch always records (conditional, jump or return). It crosses blocks
// that fall through and calls, which fall through at maxCallDepth; a
// task-cap jump only cuts it short, so every group the stream fetches
// lies within one run.
type fetchRuns struct {
	longest uint64 // instructions in the longest run
	// onceLost bounds the instructions fetch reconstruction drops from
	// functions that execute at most once (the init function).
	onceLost uint64
	// repeatLost reports a run reconstruction drops instructions from
	// that can execute any number of times.
	repeatLost bool
}

// add folds in a function of instrs instructions whose longest run is
// longest instructions. A run longer than trace.MaxSequentialRun+1 instructions makes
// the fetcher resync at its branch and count 1 instruction, dropping the
// rest; a shorter group within the run drops nothing. A function that
// executes once drops fewer than its instructions.
func (s *fetchRuns) add(longest, instrs uint64, once bool) {
	s.longest = max(s.longest, longest)
	switch long := longest > trace.MaxSequentialRun+1; {
	case long && once:
		s.onceLost += instrs - 1
	case long:
		s.repeatLost = true
	}
}

// blockLayout is a valid program's per-block bookkeeping, shared
// read-only by its executors: the global index of each function's first
// block, each block's counted-loop slot, and each counted loop's initial
// trip count. Executors copy only the per-loop counts.
type blockLayout struct {
	blockOff []int   // function index -> global block offset (len Funcs+1)
	loopSlot []int32 // global block index -> counted-loop slot, or -1
	trips    []int   // counted-loop slot -> initial remaining taken iterations
}

// build lays out a valid program, reusing l's storage.
func (l *blockLayout) build(p *Program) {
	l.blockOff = resize(l.blockOff, len(p.Funcs)+1)
	l.blockOff[0] = 0
	for fi := range p.Funcs {
		l.blockOff[fi+1] = l.blockOff[fi] + len(p.Funcs[fi].Blocks)
	}
	l.loopSlot = resize(l.loopSlot, l.blockOff[len(p.Funcs)])
	l.trips = l.trips[:0]
	for fi := range p.Funcs {
		blocks := p.Funcs[fi].Blocks
		for bi := range blocks {
			slot := int32(-1)
			if tc := blocks[bi].TripCount; tc > 0 {
				slot = int32(len(l.trips))
				l.trips = append(l.trips, tc)
			}
			l.loopSlot[l.blockOff[fi]+bi] = slot
		}
	}
}

// Validate checks structural invariants of the program.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("workload: program %q has no functions", p.Name)
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if len(f.Blocks) == 0 {
			return fmt.Errorf("workload: function %d has no blocks", fi)
		}
		hasReturn := false
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			if b.Instrs < 1 {
				return fmt.Errorf("workload: function %d block %d has %d instrs", fi, bi, b.Instrs)
			}
			switch b.Term {
			case TermFall:
				if bi == len(f.Blocks)-1 {
					return fmt.Errorf("workload: function %d falls off the end", fi)
				}
			case TermCond, TermJump:
				if b.Target < 0 || b.Target >= len(f.Blocks) {
					return fmt.Errorf("workload: function %d block %d target %d out of range", fi, bi, b.Target)
				}
			case TermCall:
				if b.Callee < 0 || b.Callee >= len(p.Funcs) {
					return fmt.Errorf("workload: function %d block %d callee %d out of range", fi, bi, b.Callee)
				}
				if bi == len(f.Blocks)-1 {
					return fmt.Errorf("workload: function %d ends with a call and no return block", fi)
				}
			case TermIndirectCall:
				if len(b.Callees) == 0 {
					return fmt.Errorf("workload: function %d block %d has no indirect callees", fi, bi)
				}
				for _, c := range b.Callees {
					if c < 0 || c >= len(p.Funcs) {
						return fmt.Errorf("workload: function %d block %d callee %d out of range", fi, bi, c)
					}
				}
				if bi == len(f.Blocks)-1 {
					return fmt.Errorf("workload: function %d ends with an indirect call and no return block", fi)
				}
			case TermReturn:
				hasReturn = true
			default:
				return fmt.Errorf("workload: function %d block %d has invalid terminator %d", fi, bi, b.Term)
			}
		}
		if !hasReturn {
			return fmt.Errorf("workload: function %d has no return", fi)
		}
	}
	if p.InitFunc >= len(p.Funcs) {
		return fmt.Errorf("workload: init function %d out of range", p.InitFunc)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: no phases")
	}
	for pi, ph := range p.Phases {
		if len(ph.Funcs) == 0 || len(ph.Funcs) != len(ph.Weights) {
			return fmt.Errorf("workload: phase %d malformed", pi)
		}
		for _, fi := range ph.Funcs {
			if fi < 0 || fi >= len(p.Funcs) {
				return fmt.Errorf("workload: phase %d function %d out of range", pi, fi)
			}
		}
	}
	return nil
}

// FetchBounds bounds the instruction total that fetch reconstruction
// (trace.Fetcher at InstrBytes) infers from the stream Emit produces for
// target. The executor stops at the first record that brings its own
// count to target, and its count leads reconstruction's by 1 to 3: it
// counts the dispatcher's 2-instruction loop-back before that jump's
// record, and the stream's first record is fetched from its own PC, one
// instruction short of the dispatcher's two. Reconstruction also drops
// the instructions of runs longer than it infers (fetchRuns.add). So
// the total is at least target − 3 less what the init function's runs
// drop; a program that can drop instructions repeatedly has no lower
// bound above 1. The record before the last left the executor below
// target, so reconstruction stood at target − 2 or less, and the last
// record adds one fetch group: the dispatcher's 2 or a function's run,
// and never more than trace.MaxSequentialRun+1 instructions.
//
// A program built by hand counts as one run of its whole code that may
// repeat. A layout whose blocks are not contiguous in address order can
// still fall outside the bounds.
func (p *Program) FetchBounds(target uint64) (lo, hi uint64) {
	runs := p.runs
	if p.layout == nil { // built by hand, so p.runs is zero
		runs.add(p.CodeBytes()/InstrBytes, 0, false)
	}
	lo = 1
	if !runs.repeatLost && target > runs.onceLost+3 {
		lo = target - 3 - runs.onceLost
	}
	return lo, target + min(max(runs.longest, 2), trace.MaxSequentialRun+1) - 2
}

// CodeBytes returns the total byte footprint of the program's code.
func (p *Program) CodeBytes() uint64 {
	var total uint64
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			total += uint64(p.Funcs[fi].Blocks[bi].Instrs) * InstrBytes
		}
	}
	return total
}

// StaticBranches counts the branch-record-emitting terminators.
func (p *Program) StaticBranches() int {
	n := 0
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			if p.Funcs[fi].Blocks[bi].Term != TermFall {
				n++
			}
		}
	}
	return n
}
