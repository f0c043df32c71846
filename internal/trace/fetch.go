package trace

import "fmt"

// DefaultInstrBytes is the fixed instruction size assumed when
// reconstructing sequential instructions between branch targets. The CBP5
// traces come from a RISC-style ISA with 4-byte instructions.
const DefaultInstrBytes = 4

// MaxSequentialRun caps how many sequential instructions may be inferred
// between two branch records. Real basic blocks are far shorter; a longer
// run indicates a malformed or discontinuous trace, and the reconstructor
// resynchronizes at the branch PC instead of fabricating megabytes of
// straight-line code.
const MaxSequentialRun = 1 << 14

// Fetcher reconstructs the instruction fetch stream from a branch-record
// stream, as described in the paper's methodology: every instruction
// between the previous branch's next PC and the current branch's PC is
// sequential. It reports the cache blocks touched by each fetch group.
type Fetcher struct {
	instrBytes uint64
	instrShift uint
	blockShift uint
	maxRun     uint64 // MaxSequentialRun in bytes
	pc         uint64
	started    bool
	resyncs    uint64
}

// NewFetcher returns a Fetcher for the given instruction size and I-cache
// block size. blockBytes must be a power of two that is a multiple of
// instrBytes (so instrBytes is a power of two as well).
func NewFetcher(instrBytes, blockBytes uint64) (*Fetcher, error) {
	if instrBytes == 0 || blockBytes == 0 {
		return nil, fmt.Errorf("trace: zero instruction (%d) or block (%d) size", instrBytes, blockBytes)
	}
	if blockBytes&(blockBytes-1) != 0 {
		return nil, fmt.Errorf("trace: block size %d is not a power of two", blockBytes)
	}
	if blockBytes%instrBytes != 0 {
		return nil, fmt.Errorf("trace: block size %d not a multiple of instruction size %d", blockBytes, instrBytes)
	}
	return &Fetcher{
		instrBytes: instrBytes,
		instrShift: shiftOf(instrBytes),
		blockShift: shiftOf(blockBytes),
		maxRun:     MaxSequentialRun * instrBytes,
	}, nil
}

// Group is one record's fetch group: the sequential instructions from
// the fetch PC through the branch instruction itself.
type Group struct {
	Start  uint64 // PC of the first instruction fetched (after any resync)
	First  uint64 // first cache block touched (Start's block number)
	Last   uint64 // last cache block touched (the branch's block number)
	Instrs uint64 // instructions fetched, the branch included
}

// Advance consumes one branch record and returns its fetch group, which
// touches every cache block from First through Last. Afterwards the
// fetch PC is the branch's next PC. It is the one fetch-advance step:
// NextSpans is a wrapper that also splits the group by block.
//
//ghrp:hotpath
func (f *Fetcher) Advance(rec Record) Group {
	if !f.started {
		f.pc = rec.PC
		f.started = true
	}
	if rec.PC < f.pc || rec.PC-f.pc > f.maxRun {
		// Discontinuity: resynchronize at the branch. This happens only
		// for malformed traces; count it so callers can assert cleanliness.
		f.resyncs++
		f.pc = rec.PC
	}
	g := Group{
		Start:  f.pc,
		First:  f.pc >> f.blockShift,
		Last:   rec.PC >> f.blockShift,
		Instrs: (rec.PC-f.pc)>>f.instrShift + 1,
	}
	f.pc = rec.NextPC(f.instrBytes)
	return g
}

// BlockSpan is one cache block touched by a fetch group, together with
// the number of instructions the group contributes to that block.
type BlockSpan struct {
	Block  uint64
	Instrs int
}

// NextSpans consumes one branch record, appends one BlockSpan per
// distinct cache block (in fetch order) to spans — reusing the slice's
// capacity, so a caller that passes its scratch back in allocates
// nothing in steady state — and returns the extended slice with the
// instruction count. Afterwards the fetch PC is the branch's next PC.
func (f *Fetcher) NextSpans(rec Record, spans []BlockSpan) ([]BlockSpan, uint64) {
	g := f.Advance(rec)
	last := uint64(1)<<(f.blockShift-f.instrShift) - 1 // last instruction slot of a block
	for b := g.First; b <= g.Last; b++ {
		lo, hi := uint64(0), last
		if b == g.First {
			lo = g.Start >> f.instrShift & last
		}
		if b == g.Last {
			hi = rec.PC >> f.instrShift & last
		}
		spans = append(spans, BlockSpan{Block: b, Instrs: int(hi - lo + 1)})
	}
	return spans, g.Instrs
}

// Resyncs returns how many discontinuities were repaired; zero for a
// well-formed trace.
func (f *Fetcher) Resyncs() uint64 { return f.resyncs }

// PC returns the current fetch program counter.
func (f *Fetcher) PC() uint64 { return f.pc }

// Reset returns the fetcher to its initial state.
//
//ghrp:hotpath
func (f *Fetcher) Reset() {
	f.pc = 0
	f.started = false
	f.resyncs = 0
}

func shiftOf(v uint64) uint {
	s := uint(0)
	for ; v > 1; v >>= 1 {
		s++
	}
	return s
}
