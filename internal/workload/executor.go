package workload

import (
	"context"
	"fmt"
	"slices"

	"ghrpsim/internal/trace"
)

// maxCallDepth bounds the runtime call stack; deeper call sites execute
// as fall-throughs. Real traces have bounded stacks too.
const maxCallDepth = 10

// dispatcherInstrs approximates the per-task overhead of the dispatcher
// loop (sample, call, loop back).
const dispatcherInstrs = 4

// defaultTaskCap bounds one dispatcher task's instruction count. Nested
// counted loops around call sites can otherwise multiply without bound
// (trip^depth); real request handlers are bounded by time slicing and
// deadlines. When the cap is hit the task fast-forwards to its returns,
// emitting a consistent record stream.
const defaultTaskCap = 25_000

// Executor interprets a Program, emitting one trace.Record per executed
// branch. Execution is deterministic for a given (program, seed).
type Executor struct {
	prog     *Program
	rng      rng
	emit     func(trace.Record) error
	instrs   uint64
	target   uint64
	burstMin int
	burstMax int
	taskCap  uint64
	tripLeft []int   // per counted loop: remaining taken iterations
	blockOff []int   // function index -> global block offset (shared, read-only)
	loopSlot []int32 // global block index -> counted-loop slot (shared, read-only)
	stack    []retAddr
	err      error
}

type retAddr struct {
	fn    int
	block int
}

// NewExecutor prepares an executor that will emit records through emit.
// The emit callback may return an error to abort execution early. A
// generated program's layout is reused; any other program is validated
// first.
func NewExecutor(p *Program, seed uint64, emit func(trace.Record) error) (*Executor, error) {
	lay := p.layout
	if lay == nil {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		lay = new(blockLayout)
		lay.build(p)
	}
	x := &Executor{prog: p, rng: *newRNG(seed), emit: emit, burstMin: p.BurstMin, burstMax: p.BurstMax}
	if x.burstMin < 1 {
		x.burstMin = 1
	}
	if x.burstMax < x.burstMin {
		x.burstMax = x.burstMin
	}
	x.taskCap = defaultTaskCap
	x.blockOff = lay.blockOff
	x.loopSlot = lay.loopSlot
	x.tripLeft = slices.Clone(lay.trips)
	return x, nil
}

// Instructions returns how many instructions have been executed so far.
func (x *Executor) Instructions() uint64 { return x.instrs }

// Run executes the program until approximately target instructions have
// been emitted: the one-shot init function first, then the phase
// schedule, each phase receiving an equal share of the budget.
func (x *Executor) Run(target uint64) error {
	if target == 0 {
		return fmt.Errorf("workload: zero instruction target")
	}
	x.target = target
	if x.prog.InitFunc >= 0 {
		if !x.task(x.prog.InitFunc) {
			return x.err
		}
	}
	phases := x.prog.Phases
	for pi := range phases {
		limit := x.target * uint64(pi+1) / uint64(len(phases))
		for x.instrs < limit {
			fn := phases[pi].Funcs[x.rng.pick(phases[pi].Weights)]
			burst := x.rng.rangeInt(x.burstMin, x.burstMax)
			if x.prog.Funcs[fn].Scan {
				burst = 1
			}
			for b := 0; b < burst && x.instrs < limit; b++ {
				if !x.task(fn) {
					return x.err
				}
			}
		}
	}
	return x.err
}

// record emits one branch record; it returns false when execution must
// stop (budget exhausted or sink error).
func (x *Executor) record(r trace.Record) bool {
	if x.err != nil {
		return false
	}
	if err := x.emit(r); err != nil {
		x.err = err
		return false
	}
	return x.instrs < x.target
}

// task runs one dispatcher iteration: call fn, execute to completion,
// return to the dispatcher. Returns false to stop all execution.
func (x *Executor) task(fn int) bool {
	d := x.prog.DispatchAddr
	callPC := d + 4
	entry := x.prog.Funcs[fn].Entry()
	x.instrs += dispatcherInstrs
	ctype := trace.DirectCall
	if x.prog.DispatchIndirect {
		ctype = trace.IndirectCall
	}
	if !x.record(trace.Record{PC: callPC, Target: entry, Type: ctype, Taken: true}) {
		return false
	}
	if !x.exec(fn, d+8) {
		return false
	}
	// Dispatcher loop-back jump.
	return x.record(trace.Record{PC: d + 12, Target: d, Type: trace.UncondDirect, Taken: true})
}

// exec interprets function fn until it returns; retTo is the address the
// final return transfers to. Returns false to stop all execution.
func (x *Executor) exec(fn int, retTo uint64) bool {
	x.stack = x.stack[:0]
	curFn, curBlk := fn, 0
	taskStart := x.instrs
	for {
		f := &x.prog.Funcs[curFn]
		b := &f.Blocks[curBlk]
		// Task cap: fast-forward to this function's return block so the
		// record stream stays control-flow consistent while the task
		// unwinds.
		if x.instrs-taskStart > x.taskCap && b.Term != TermReturn {
			ret := len(f.Blocks) - 1
			for ri := range f.Blocks {
				if f.Blocks[ri].Term == TermReturn {
					ret = ri
					break
				}
			}
			if ret != curBlk {
				x.instrs += uint64(b.Instrs)
				if !x.record(trace.Record{PC: b.LastPC(), Target: f.Blocks[ret].Addr, Type: trace.UncondDirect, Taken: true}) {
					return false
				}
				curBlk = ret
				continue
			}
		}
		x.instrs += uint64(b.Instrs)
		pc := b.LastPC()
		switch b.Term {
		case TermFall:
			curBlk++

		case TermCond:
			taken := x.condTaken(curFn, curBlk, b)
			tgt := f.Blocks[b.Target].Addr
			if !x.record(trace.Record{PC: pc, Target: tgt, Type: trace.CondDirect, Taken: taken}) {
				return false
			}
			if taken {
				curBlk = b.Target
			} else {
				curBlk++
			}

		case TermJump:
			tgt := f.Blocks[b.Target].Addr
			if !x.record(trace.Record{PC: pc, Target: tgt, Type: trace.UncondDirect, Taken: true}) {
				return false
			}
			curBlk = b.Target

		case TermCall, TermIndirectCall:
			callee := b.Callee
			ctype := trace.DirectCall
			if b.Term == TermIndirectCall {
				callee = b.Callees[x.rng.intn(len(b.Callees))]
				ctype = trace.IndirectCall
			}
			if len(x.stack) >= maxCallDepth {
				// Depth limit: execute as a fall-through.
				curBlk++
				continue
			}
			entry := x.prog.Funcs[callee].Entry()
			if !x.record(trace.Record{PC: pc, Target: entry, Type: ctype, Taken: true}) {
				return false
			}
			x.stack = append(x.stack, retAddr{fn: curFn, block: curBlk + 1})
			curFn, curBlk = callee, 0

		case TermReturn:
			if len(x.stack) == 0 {
				return x.record(trace.Record{PC: pc, Target: retTo, Type: trace.Return, Taken: true})
			}
			top := x.stack[len(x.stack)-1]
			x.stack = x.stack[:len(x.stack)-1]
			retTarget := x.prog.Funcs[top.fn].Blocks[top.block].Addr
			if !x.record(trace.Record{PC: pc, Target: retTarget, Type: trace.Return, Taken: true}) {
				return false
			}
			curFn, curBlk = top.fn, top.block
		}
	}
}

// condTaken resolves a conditional branch: counted loops count down
// their trip counter; probabilistic branches sample their bias.
func (x *Executor) condTaken(fn, blk int, b *Block) bool {
	if b.TripCount > 0 {
		s := x.loopSlot[x.blockOff[fn]+blk]
		if x.tripLeft[s] > 0 {
			x.tripLeft[s]--
			return true
		}
		x.tripLeft[s] = b.TripCount
		return false
	}
	return x.rng.float() < b.Bias
}

// Emit runs prog for target instructions and writes all records through
// a trace.Writer-compatible sink, returning the record count.
func Emit(p *Program, seed, target uint64, sink func(trace.Record) error) (records uint64, err error) {
	x, err := NewExecutor(p, seed, func(r trace.Record) error {
		records++
		return sink(r)
	})
	if err != nil {
		return 0, err
	}
	if err := x.Run(target); err != nil {
		return records, err
	}
	return records, nil
}

// emitCheckEvery is how many records pass between EmitContext's
// cancellation polls.
const emitCheckEvery = 1 << 16

// EmitContext is Emit with cooperative cancellation: the context is
// polled periodically and a pending cancellation aborts the emission,
// returning ctx.Err().
func EmitContext(ctx context.Context, p *Program, seed, target uint64, sink func(trace.Record) error) (uint64, error) {
	var n uint64
	return Emit(p, seed, target, func(r trace.Record) error {
		n++
		if n%emitCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		return sink(r)
	})
}
