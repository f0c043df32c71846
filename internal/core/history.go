// Package core implements Global History Reuse Prediction (GHRP), the
// paper's contribution: a dead block/entry predictor for the instruction
// cache and branch target buffer driven by the global path history of
// instruction addresses.
//
// GHRP keeps a 16-bit path history register updated on every access by
// shifting in the three lowest-order bits of the PC followed by one zero
// bit (§III-A), so four prior accesses are recorded. The prediction
// signature is the XOR of the history with the accessed PC; the zero bits
// let some PC bits pass through unmodified. Three different 12-bit hashes
// of the signature index three tables of two-bit saturating counters, and
// the thresholded counters are combined by majority vote (§III-C).
package core

// History is the GHRP global path history. It maintains the speculative
// register, updated with the stream of fetch addresses, and the
// non-speculative (retired) register, updated at commit; on a branch
// misprediction the speculative register is restored from the retired one
// (§III-F).
type History struct {
	spec    uint16
	retired uint16
	// The history geometry, reduced once from Config: the shift per
	// access, the mask of PC bits shifted in and the register mask.
	shift    uint32
	pcMask   uint32
	histMask uint32
}

func newHistory(cfg Config) History {
	cfg = cfg.WithDefaults()
	return History{
		shift:    uint32(cfg.ShiftPerAccess),
		pcMask:   uint32(1)<<max(cfg.PCBitsPerAccess, 0) - 1,
		histMask: uint32(1)<<cfg.HistoryBits - 1,
	}
}

// PCFold reduces an instruction address to the bits shifted into the
// history. The paper shifts in "the three lowest-order bits of the PC";
// its CBP-5 trace addresses carry entropy there, but this simulator's
// fetch addresses are 4-byte-aligned block-granular addresses whose low
// bits are constant, so the fold XORs the word-address bits with higher
// (block-number) bits to recover the same per-access entropy.
func PCFold(pc uint64) uint64 {
	return (pc >> 2) ^ (pc >> 6) ^ (pc >> 12)
}

// step folds one PC into a history register value: the register shifts
// left, the folded PC bits enter above one zero bit, and the result is
// truncated to the register width.
func (h *History) step(reg uint16, pc uint64) uint16 {
	bits := uint32(PCFold(pc)) & h.pcMask
	return uint16((uint32(reg)<<h.shift | bits<<1) & h.histMask)
}

// Update folds a fetch address into the speculative history. Call once
// per I-cache access, in fetch order.
func (h *History) Update(pc uint64) { h.spec = h.step(h.spec, pc) }

// Commit folds a retired address into the non-speculative history. Call
// when the corresponding instruction commits.
func (h *History) Commit(pc uint64) { h.retired = h.step(h.retired, pc) }

// Recover restores the speculative history from the retired history,
// discarding wrong-path updates after a branch misprediction.
func (h *History) Recover() { h.spec = h.retired }

// Current returns the speculative history value used for predictions.
func (h *History) Current() uint16 { return h.spec }

// Retired returns the non-speculative history value.
func (h *History) Retired() uint16 { return h.retired }

// Reset clears both history registers.
//
//ghrp:hotpath
func (h *History) Reset() { h.spec, h.retired = 0, 0 }

// Signature combines the current speculative history with the accessed
// PC per Algorithm 2: signature = history XOR PC, truncated to the
// history width.
func (h *History) Signature(pc uint64) uint16 {
	return uint16((uint64(h.spec) ^ pc) & uint64(h.histMask))
}
