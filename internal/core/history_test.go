package core

import (
	"testing"
	"testing/quick"
)

func TestHistoryUpdateFormula(t *testing.T) {
	h := newHistory(Config{})
	// Algorithm 2: h = (h << 4) | (fold(pc) & 7) << 1, truncated to 16
	// bits, where fold recovers entropy from aligned addresses.
	pc1, pc2 := uint64(0b101<<2), uint64(0b111<<2)
	b1 := uint16(PCFold(pc1)&7) << 1
	b2 := uint16(PCFold(pc2)&7) << 1
	h.Update(pc1)
	if got := h.Current(); got != b1 {
		t.Errorf("after first update: %#b, want %#b", got, b1)
	}
	h.Update(pc2)
	if got := h.Current(); got != b1<<4|b2 {
		t.Errorf("after second update: %#b, want %#b", got, b1<<4|b2)
	}
	// The low bit injected per access is always zero.
	if h.Current()&1 != 0 {
		t.Error("low history bit must be zero")
	}
}

func TestPCFoldEntropyOnAlignedAddresses(t *testing.T) {
	// Sequential 64B-aligned block addresses must not fold to a
	// constant: that is the whole point of the fold.
	seen := map[uint64]bool{}
	for b := uint64(0); b < 16; b++ {
		seen[PCFold(b<<6)&7] = true
	}
	if len(seen) < 4 {
		t.Errorf("fold of sequential block addresses yields only %d distinct 3-bit values", len(seen))
	}
}

func TestHistoryRecordsFourAccesses(t *testing.T) {
	h := newHistory(Config{})
	pcs := []uint64{1 << 2, 2 << 2, 3 << 2, 4 << 2, 5 << 2}
	for _, pc := range pcs {
		h.Update(pc)
	}
	// Only the last four accesses fit in 16 bits with a 4-bit shift: the
	// first access must have been shifted out entirely.
	want := uint16(0)
	for _, pc := range pcs[1:] {
		want = want<<4 | uint16(PCFold(pc)&7)<<1
	}
	if got := h.Current(); got != want {
		t.Errorf("history %#x, want %#x", got, want)
	}
}

func TestHistorySpeculativeRecovery(t *testing.T) {
	h := newHistory(Config{})
	for _, pc := range []uint64{1, 2, 3} {
		h.Update(pc)
		h.Commit(pc)
	}
	sync := h.Current()
	if sync != h.Retired() {
		t.Fatal("speculative and retired histories diverged on the right path")
	}
	// Wrong-path updates pollute the speculative register only.
	h.Update(7)
	h.Update(6)
	if h.Current() == sync {
		t.Fatal("speculative history did not advance")
	}
	if h.Retired() != sync {
		t.Fatal("retired history moved without Commit")
	}
	h.Recover()
	if h.Current() != sync {
		t.Error("Recover did not restore the speculative history")
	}
}

func TestHistoryReset(t *testing.T) {
	h := newHistory(Config{})
	h.Update(5)
	h.Commit(5)
	h.Reset()
	if h.Current() != 0 || h.Retired() != 0 {
		t.Error("Reset left state behind")
	}
}

func TestSignatureXOR(t *testing.T) {
	h := newHistory(Config{})
	h.Update(0x1234)
	pc := uint64(0xABCD)
	want := uint16(uint64(h.Current()) ^ pc&0xFFFF)
	if got := h.Signature(pc); got != want {
		t.Errorf("Signature = %#x, want %#x", got, want)
	}
	// Zero history passes the PC through: the zero bits in the history
	// let PC bits through unmodified (§III-A).
	h2 := newHistory(Config{})
	if got := h2.Signature(0xBEEF); got != 0xBEEF {
		t.Errorf("Signature with empty history = %#x, want 0xBEEF", got)
	}
}

func TestSignatureDistinguishesPaths(t *testing.T) {
	// Two different paths to the same PC must normally produce different
	// signatures — that is the entire point of GHRP over PC-only schemes.
	pathA := []uint64{0x100, 0x204, 0x30C}
	pathB := []uint64{0x140, 0x2C4, 0x34C}
	mk := func(path []uint64) uint16 {
		h := newHistory(Config{})
		for _, pc := range path {
			h.Update(pc)
		}
		return h.Signature(0x4000)
	}
	if mk(pathA) == mk(pathB) {
		t.Error("distinct paths yielded identical signatures")
	}
}

func TestHistoryWidthProperty(t *testing.T) {
	// Property: the history always fits in HistoryBits and its low bit is
	// always zero after any update sequence.
	f := func(pcs []uint64) bool {
		h := newHistory(Config{})
		for _, pc := range pcs {
			h.Update(pc)
			if h.Current()&1 != 0 {
				return false
			}
			if uint32(h.Current()) >= 1<<16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryConfigurableDepth(t *testing.T) {
	// With an 8-bit history and 4-bit shift, only two accesses fit.
	h := newHistory(Config{HistoryBits: 8})
	for _, pc := range []uint64{1 << 2, 2 << 2, 3 << 2} {
		h.Update(pc)
	}
	want := uint16(PCFold(2<<2)&7)<<5 | uint16(PCFold(3<<2)&7)<<1
	if got := h.Current(); got != want {
		t.Errorf("8-bit history = %#x, want %#x", got, want)
	}
}
