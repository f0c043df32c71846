package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFetcherValidation(t *testing.T) {
	cases := []struct {
		instr, block uint64
		ok           bool
	}{
		{4, 64, true},
		{4, 128, true},
		{2, 32, true},
		{0, 64, false},
		{4, 0, false},
		{4, 63, false}, // not a power of two
		{8, 4, false},  // block smaller than instruction
	}
	for _, tc := range cases {
		_, err := NewFetcher(tc.instr, tc.block)
		if (err == nil) != tc.ok {
			t.Errorf("NewFetcher(%d, %d) err=%v, want ok=%v", tc.instr, tc.block, err, tc.ok)
		}
	}
}

// collect gathers the (block, instrs) spans of one record.
func collect(f *Fetcher, rec Record) (blocks []uint64, counts []int, instrs uint64) {
	spans, instrs := f.NextSpans(rec, nil)
	for _, s := range spans {
		blocks = append(blocks, s.Block)
		counts = append(counts, s.Instrs)
	}
	return
}

func TestFetcherSingleBlock(t *testing.T) {
	f, err := NewFetcher(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// First record: fetch starts at the branch itself.
	blocks, counts, instrs := collect(f, Record{PC: 0x1000, Target: 0x2000, Type: UncondDirect, Taken: true})
	if instrs != 1 {
		t.Errorf("instrs = %d, want 1", instrs)
	}
	if len(blocks) != 1 || blocks[0] != 0x1000>>6 || counts[0] != 1 {
		t.Errorf("blocks=%v counts=%v, want [0x40] [1]", blocks, counts)
	}
	if f.PC() != 0x2000 {
		t.Errorf("PC = %#x, want 0x2000", f.PC())
	}
}

func TestFetcherSequentialRun(t *testing.T) {
	f, err := NewFetcher(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Seed position with a first branch landing at 0x2000.
	f.Advance(Record{PC: 0x1000, Target: 0x2000, Type: UncondDirect, Taken: true})
	// Branch at 0x20A0: instructions 0x2000..0x20A0 inclusive = 41 instrs,
	// spanning blocks 0x80 (16 instrs), 0x81 (16), 0x82 (9).
	blocks, counts, instrs := collect(f, Record{PC: 0x20A0, Target: 0x3000, Type: UncondDirect, Taken: true})
	if instrs != 41 {
		t.Errorf("instrs = %d, want 41", instrs)
	}
	wantBlocks := []uint64{0x80, 0x81, 0x82}
	wantCounts := []int{16, 16, 9}
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v, want %v", blocks, wantBlocks)
	}
	for i := range wantBlocks {
		if blocks[i] != wantBlocks[i] || counts[i] != wantCounts[i] {
			t.Errorf("block[%d] = (%#x, %d), want (%#x, %d)", i, blocks[i], counts[i], wantBlocks[i], wantCounts[i])
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if uint64(total) != instrs {
		t.Errorf("sum of per-block counts %d != instrs %d", total, instrs)
	}
}

func TestFetcherMisalignedStart(t *testing.T) {
	f, err := NewFetcher(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Land mid-block at 0x2038 (instruction 14 of block 0x80), run to
	// 0x2044 (instruction 1 of block 0x81): 4 instructions total.
	f.Advance(Record{PC: 0x1000, Target: 0x2038, Type: UncondDirect, Taken: true})
	blocks, counts, instrs := collect(f, Record{PC: 0x2044, Target: 0x3000, Type: UncondDirect, Taken: true})
	if instrs != 4 {
		t.Errorf("instrs = %d, want 4", instrs)
	}
	if len(blocks) != 2 || counts[0] != 2 || counts[1] != 2 {
		t.Errorf("blocks=%v counts=%v, want two blocks with 2 instrs each", blocks, counts)
	}
}

func TestFetcherNotTakenFallThrough(t *testing.T) {
	f, err := NewFetcher(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(Record{PC: 0x1000, Target: 0x1004, Type: CondDirect, Taken: false})
	if f.PC() != 0x1004 {
		t.Errorf("PC after not-taken = %#x, want 0x1004", f.PC())
	}
	_, _, instrs := collect(f, Record{PC: 0x100C, Target: 0x1000, Type: CondDirect, Taken: true})
	if instrs != 3 {
		t.Errorf("instrs = %d, want 3 (0x1004, 0x1008, 0x100C)", instrs)
	}
}

func TestFetcherResync(t *testing.T) {
	f, err := NewFetcher(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(Record{PC: 0x10000, Target: 0x20000, Type: UncondDirect, Taken: true})
	// A branch before the fetch PC is a discontinuity.
	_, _, instrs := collect(f, Record{PC: 0x8000, Target: 0x9000, Type: UncondDirect, Taken: true})
	if instrs != 1 {
		t.Errorf("resync instrs = %d, want 1", instrs)
	}
	if f.Resyncs() != 1 {
		t.Errorf("Resyncs = %d, want 1", f.Resyncs())
	}
	// A branch absurdly far ahead is also a discontinuity.
	f.Advance(Record{PC: 0x9000 + MaxSequentialRun*8, Target: 0xA000, Type: UncondDirect, Taken: true})
	if f.Resyncs() != 2 {
		t.Errorf("Resyncs = %d, want 2", f.Resyncs())
	}
}

func TestFetcherReset(t *testing.T) {
	f, err := NewFetcher(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	f.Advance(Record{PC: 0x1000, Target: 0x2000, Type: UncondDirect, Taken: true})
	f.Reset()
	if f.PC() != 0 || f.Resyncs() != 0 {
		t.Error("Reset did not clear state")
	}
	_, _, instrs := collect(f, Record{PC: 0x5000, Target: 0x6000, Type: UncondDirect, Taken: true})
	if instrs != 1 {
		t.Errorf("after Reset first record instrs = %d, want 1", instrs)
	}
}

// Property: for any well-formed consecutive pair of records, the sum of
// per-block instruction counts equals the total instruction count, blocks
// are strictly increasing, and each count is within (0, blockInstrs].
func TestFetcherBlockAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fet, err := NewFetcher(4, 64)
		if err != nil {
			return false
		}
		pc := uint64(0x400000) + uint64(rng.Intn(1<<20))*4
		fet.Advance(Record{PC: 0x1000, Target: pc, Type: UncondDirect, Taken: true})
		for i := 0; i < 50; i++ {
			branchPC := pc + uint64(rng.Intn(200))*4
			blocks, counts, instrs := collect(fet, Record{PC: branchPC, Target: pc, Type: CondDirect, Taken: false})
			sum := 0
			for j, c := range counts {
				if c <= 0 || c > 16 {
					return false
				}
				if j > 0 && blocks[j] != blocks[j-1]+1 {
					return false
				}
				sum += c
			}
			if uint64(sum) != instrs {
				return false
			}
			pc = branchPC + 4
		}
		return fet.Resyncs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// NextSpans is a wrapper over the one fetch-advance core, Advance. For
// any record stream — including discontinuities that force resyncs —
// the two must agree: identical instruction totals, NextSpans' blocks
// exactly Advance's First..Last range, per-block instruction counts
// that match the instructions from the group's start through the
// branch falling in each block and sum to the total, and identical
// fetcher state.
func TestNextSpansMatchesAdvance(t *testing.T) {
	var resyncs uint64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewFetcher(4, 64)
		if err != nil {
			return false
		}
		c, _ := NewFetcher(4, 64)
		pc := uint64(0x400000)
		var spans []BlockSpan
		for i := 0; i < 80; i++ {
			branchPC := pc + uint64(rng.Intn(300))*4
			if rng.Intn(10) == 0 { // discontinuity: jump backwards or far forwards
				branchPC = uint64(0x100000) + uint64(rng.Intn(1<<22))*4
			}
			rec := Record{PC: branchPC, Target: uint64(0x400000) + uint64(rng.Intn(1<<20))*4,
				Type: CondDirect, Taken: rng.Intn(2) == 0}
			var gotInstrs uint64
			spans, gotInstrs = b.NextSpans(rec, spans[:0])
			g := c.Advance(rec)
			if gotInstrs != g.Instrs || uint64(len(spans)) != g.Last-g.First+1 {
				return false
			}
			if g.Last != rec.PC>>6 || g.First != g.Start>>6 {
				return false
			}
			sum := 0
			for j, s := range spans {
				lo, hi := max(g.Start, s.Block<<6), min(rec.PC, s.Block<<6+60)
				if s.Block != g.First+uint64(j) || s.Instrs != int((hi-lo)/4+1) {
					return false
				}
				sum += s.Instrs
			}
			if uint64(sum) != g.Instrs {
				return false
			}
			if b.PC() != c.PC() || b.Resyncs() != c.Resyncs() {
				return false
			}
			pc = rec.NextPC(4)
		}
		resyncs += b.Resyncs()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if resyncs == 0 {
		t.Error("no stream resynchronized; the discontinuity path went untested")
	}
}
