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
	Name   string
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
// A program built by Generate carries the block layout it was validated
// with, and every Executor of it reuses that layout instead of
// validating again; such a program must not be modified afterwards.
// Programs built by hand are validated by each NewExecutor.
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

	// layout is set by Generate once the program validated; nil for
	// programs built by hand.
	layout *blockLayout
}

// blockLayout is a validated program's per-block bookkeeping, shared
// read-only by its executors: the global index of each function's first
// block, and each block's initial loop trip count.
type blockLayout struct {
	blockOff []int // function index -> global block offset (len Funcs+1)
	trips    []int // global block index -> initial remaining taken iterations
}

// newBlockLayout derives the layout of a program that passed Validate.
func newBlockLayout(p *Program) *blockLayout {
	l := &blockLayout{blockOff: make([]int, len(p.Funcs)+1)}
	for fi := range p.Funcs {
		l.blockOff[fi+1] = l.blockOff[fi] + len(p.Funcs[fi].Blocks)
	}
	l.trips = make([]int, l.blockOff[len(p.Funcs)])
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			if tc := p.Funcs[fi].Blocks[bi].TripCount; tc > 0 {
				l.trips[l.blockOff[fi]+bi] = tc
			}
		}
	}
	return l
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
