package trace

import "fmt"

// DefaultInstrBytes is the fixed instruction size assumed when
// reconstructing sequential instructions between branch targets. The CBP5
// traces come from a RISC-style ISA with 4-byte instructions.
const DefaultInstrBytes = 4

// maxSequentialRun caps how many sequential instructions may be inferred
// between two branch records. Real basic blocks are far shorter; a longer
// run indicates a malformed or discontinuous trace, and the reconstructor
// resynchronizes at the branch PC instead of fabricating megabytes of
// straight-line code.
const maxSequentialRun = 1 << 14

// Fetcher reconstructs the instruction fetch stream from a branch-record
// stream, as described in the paper's methodology: every instruction
// between the previous branch's next PC and the current branch's PC is
// sequential. It reports the cache blocks touched by each fetch group.
type Fetcher struct {
	instrBytes uint64
	blockShift uint
	pc         uint64
	started    bool
	resyncs    uint64
}

// NewFetcher returns a Fetcher for the given instruction size and I-cache
// block size. blockBytes must be a power of two that is a multiple of
// instrBytes.
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
	shift := uint(0)
	for b := blockBytes; b > 1; b >>= 1 {
		shift++
	}
	return &Fetcher{instrBytes: instrBytes, blockShift: shift}, nil
}

// BlockVisitor receives one cache-block address (already shifted down by
// the block size, i.e. a block number) together with the number of
// instructions the fetch group contributes to that block.
type BlockVisitor func(block uint64, instrs int)

// Next consumes one branch record. It walks the inferred sequential
// instructions from the current fetch PC through the branch instruction
// itself, invoking visit once per distinct cache block in order, and
// returns the number of instructions fetched (including the branch).
// Afterwards the fetch PC is the branch's next PC.
func (f *Fetcher) Next(rec Record, visit BlockVisitor) uint64 {
	if !f.started {
		f.pc = rec.PC
		f.started = true
	}
	if rec.PC < f.pc || rec.PC-f.pc > maxSequentialRun*f.instrBytes {
		// Discontinuity: resynchronize at the branch. This happens only
		// for malformed traces; count it so callers can assert cleanliness.
		f.resyncs++
		f.pc = rec.PC
	}
	instrs := (rec.PC-f.pc)/f.instrBytes + 1
	if visit != nil {
		instrShift := shiftOf(f.instrBytes)
		blockInstrs := uint64(1) << (f.blockShift - instrShift)
		first, last := f.pc>>f.blockShift, rec.PC>>f.blockShift
		firstIdx := (f.pc >> instrShift) & (blockInstrs - 1)
		lastIdx := (rec.PC >> instrShift) & (blockInstrs - 1)
		for b := first; b <= last; b++ {
			lo, hi := uint64(0), blockInstrs-1
			if b == first {
				lo = firstIdx
			}
			if b == last {
				hi = lastIdx
			}
			visit(b, int(hi-lo+1))
		}
	}
	f.pc = rec.NextPC(f.instrBytes)
	return instrs
}

// BlockSpan is one cache block touched by a fetch group, together with
// the number of instructions the group contributes to that block.
type BlockSpan struct {
	Block  uint64
	Instrs int
}

// NextSpans is Next with the visitor devirtualized for the hot replay
// path: it consumes one branch record, appends one BlockSpan per
// distinct cache block (in fetch order) to spans — reusing the slice's
// capacity, so a caller that passes its scratch back in allocates
// nothing in steady state — and returns the extended slice with the
// instruction count. It must stay in lockstep with Next; the
// equivalence is pinned by TestNextSpansMatchesNext.
func (f *Fetcher) NextSpans(rec Record, spans []BlockSpan) ([]BlockSpan, uint64) {
	if !f.started {
		f.pc = rec.PC
		f.started = true
	}
	if rec.PC < f.pc || rec.PC-f.pc > maxSequentialRun*f.instrBytes {
		f.resyncs++
		f.pc = rec.PC
	}
	instrs := (rec.PC-f.pc)/f.instrBytes + 1
	instrShift := shiftOf(f.instrBytes)
	blockInstrs := uint64(1) << (f.blockShift - instrShift)
	first, last := f.pc>>f.blockShift, rec.PC>>f.blockShift
	firstIdx := (f.pc >> instrShift) & (blockInstrs - 1)
	lastIdx := (rec.PC >> instrShift) & (blockInstrs - 1)
	for b := first; b <= last; b++ {
		lo, hi := uint64(0), blockInstrs-1
		if b == first {
			lo = firstIdx
		}
		if b == last {
			hi = lastIdx
		}
		spans = append(spans, BlockSpan{Block: b, Instrs: int(hi - lo + 1)})
	}
	f.pc = rec.NextPC(f.instrBytes)
	return spans, instrs
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
