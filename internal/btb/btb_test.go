package btb

import (
	"testing"

	"ghrpsim/internal/cache"
	"ghrpsim/internal/core"
	"ghrpsim/internal/policies"
)

func newBTB(t *testing.T, sets, ways int, p cache.Policy) *BTB {
	t.Helper()
	b, err := New(sets, ways, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 4, policies.NewLRU()); err == nil {
		t.Error("accepted zero sets")
	}
	if _, err := New(3, 4, 4, policies.NewLRU()); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
	if _, err := New(4, 0, 4, policies.NewLRU()); err == nil {
		t.Error("accepted zero ways")
	}
	if _, err := New(4, 4, 3, policies.NewLRU()); err == nil {
		t.Error("accepted non-power-of-two instr size")
	}
	if _, err := New(4, 4, 4, nil); err == nil {
		t.Error("accepted nil policy")
	}
	b := newBTB(t, 8, 4, policies.NewLRU())
	if b.Sets() != 8 || b.Ways() != 4 || b.Entries() != 32 {
		t.Errorf("geometry wrong: %d x %d", b.Sets(), b.Ways())
	}
}

func TestMissThenHit(t *testing.T) {
	b := newBTB(t, 8, 2, policies.NewLRU())
	if b.Access(0x1000, 0x2000) {
		t.Error("first access hit")
	}
	if !b.Access(0x1000, 0x2000) {
		t.Error("second access missed")
	}
	tgt, hit := b.Lookup(0x1000)
	if !hit || tgt != 0x2000 {
		t.Errorf("Lookup = (%#x, %v), want (0x2000, true)", tgt, hit)
	}
	st := b.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestTargetMismatchCounted(t *testing.T) {
	b := newBTB(t, 8, 2, policies.NewLRU())
	b.Access(0x1000, 0x2000)
	b.Access(0x1000, 0x3000) // indirect branch changed target
	st := b.Stats()
	if st.TargetMismatches != 1 {
		t.Errorf("TargetMismatches = %d, want 1", st.TargetMismatches)
	}
	tgt, _ := b.Lookup(0x1000)
	if tgt != 0x3000 {
		t.Errorf("target not updated: %#x", tgt)
	}
}

func TestModuloIndexingSeparatesBlockBranches(t *testing.T) {
	// Two branches 4 bytes apart (same 64B I-cache block) must land in
	// different BTB sets (§III-E reason 3).
	b := newBTB(t, 8, 2, policies.NewLRU())
	if b.setIndex(0x1000) == b.setIndex(0x1004) {
		t.Error("adjacent branches map to the same set")
	}
}

func TestLRUEvictionInBTB(t *testing.T) {
	b := newBTB(t, 1, 2, policies.NewLRU())
	// All PCs congruent mod (sets*4): with 1 set everything collides.
	b.Access(0x1000, 0xA0)
	b.Access(0x2000, 0xB0)
	b.Access(0x1000, 0xA0) // 0x1000 MRU
	b.Access(0x3000, 0xC0) // evicts 0x2000
	if _, hit := b.Lookup(0x2000); hit {
		t.Error("LRU entry not evicted")
	}
	if _, hit := b.Lookup(0x1000); !hit {
		t.Error("MRU entry evicted")
	}
	if st := b.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestBTBStatsMPKI(t *testing.T) {
	s := Stats{Misses: 30}
	if got := s.MPKI(10000); got != 3 {
		t.Errorf("MPKI = %v, want 3", got)
	}
	if s.MPKI(0) != 0 {
		t.Error("zero instructions must not divide by zero")
	}
}

func TestBTBReset(t *testing.T) {
	b := newBTB(t, 8, 2, policies.NewLRU())
	b.Access(0x1000, 0x2000)
	b.Reset()
	if _, hit := b.Lookup(0x1000); hit {
		t.Error("Reset left entries")
	}
	if st := b.Stats(); st.Accesses != 0 {
		t.Error("Reset left stats")
	}
}

func TestBTBEfficiencyShape(t *testing.T) {
	b := newBTB(t, 4, 2, policies.NewLRU())
	for i := 0; i < 100; i++ {
		b.Access(0x1000, 0x2000)
		b.Access(0x1010, 0x2000)
	}
	eff := b.Efficiency()
	if len(eff) != 4 || len(eff[0]) != 2 {
		t.Fatalf("efficiency shape %dx%d, want 4x2", len(eff), len(eff[0]))
	}
	var hot float64
	for _, row := range eff {
		for _, v := range row {
			if v > hot {
				hot = v
			}
			if v < 0 || v > 1 {
				t.Fatalf("efficiency %v out of [0,1]", v)
			}
		}
	}
	if hot < 0.9 {
		t.Errorf("hot entry efficiency %v, want ~1", hot)
	}
}

// setupCoupled builds an I-cache with GHRP and a BTB coupled to it.
func setupCoupled(t *testing.T, cfg core.Config) (*cache.Cache, *core.ICachePolicy, *BTB, *GHRPPolicy) {
	t.Helper()
	ip, err := core.NewICachePolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := cache.New(16, 4, ip)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewGHRPPolicy(ip, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(16, 4, 4, bp)
	if err != nil {
		t.Fatal(err)
	}
	return ic, ip, b, bp
}

func TestGHRPPolicyValidation(t *testing.T) {
	if _, err := NewGHRPPolicy(nil, 64); err == nil {
		t.Error("accepted nil icache policy")
	}
	ip, err := core.NewICachePolicy(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGHRPPolicy(ip, 63); err == nil {
		t.Error("accepted non-power-of-two block size")
	}
}

func TestGHRPBTBFallsBackToLRU(t *testing.T) {
	_, _, b, bp := setupCoupled(t, core.Config{DisableBypass: true})
	// Without any I-cache training every prediction is live: pure LRU.
	b.Access(0x0000, 0xA0)
	b.Access(0x4000, 0xB0) // same set (16 sets x 4B granule: 0x4000>>2 % 16 == 0)
	b.Access(0x8000, 0xC0)
	b.Access(0xC000, 0xD0)
	b.Access(0x0000, 0xA0) // refresh
	b.Access(0x10000, 0xE0)
	if _, hit := b.Lookup(0x4000); hit {
		t.Error("LRU fallback did not evict the oldest entry")
	}
	dead, lru := bp.EvictionBreakdown()
	if dead != 0 || lru != 1 {
		t.Errorf("breakdown dead=%d lru=%d, want 0/1", dead, lru)
	}
}

func TestGHRPBTBUsesICacheMetadata(t *testing.T) {
	ic, ip, b, bp := setupCoupled(t, core.Config{DisableBypass: true})
	// Insert the block containing branch 0x4000 into the I-cache, then
	// saturate the counters for the exact signature its metadata
	// recorded, so the shared tables predict it dead.
	deadBlock := uint64(0x4000) >> 6
	sig := ip.History().Signature(0x4000)
	ic.Access(cache.Access{Block: deadBlock, PC: 0x4000})
	for i := 0; i < 4; i++ {
		ip.Predictor().Train(sig, true)
	}
	if dead, ok := ip.BlockPrediction(deadBlock, ip.Predictor().Config().BTBDeadThreshold); !ok || !dead {
		t.Fatalf("I-cache block not predicted dead (ok=%v dead=%v)", ok, dead)
	}
	// Fill a BTB set; entry for 0x4000 gets pred bit dead on insert.
	b.Access(0x4000, 0xAA) // inserts with dead prediction
	b.Access(0x14000, 0xBB)
	b.Access(0x24000, 0xCC)
	b.Access(0x34000, 0xDD)
	b.Access(0x4000, 0xAA) // make it MRU; still predicted dead
	b.Access(0x44000, 0xEE)
	if _, hit := b.Lookup(0x4000); hit {
		t.Error("predicted-dead MRU entry was not evicted first")
	}
	dead, _ := bp.EvictionBreakdown()
	if dead == 0 {
		t.Error("no dead-predicted evictions recorded")
	}
}

func TestGHRPBTBName(t *testing.T) {
	_, _, b, _ := setupCoupled(t, core.Config{})
	if b.Policy().Name() != "GHRP" {
		t.Errorf("Name = %q", b.Policy().Name())
	}
}

func TestGHRPBTBReset(t *testing.T) {
	_, _, b, bp := setupCoupled(t, core.Config{})
	b.Access(0x1000, 0x2000)
	b.Reset()
	d, l := bp.EvictionBreakdown()
	if d != 0 || l != 0 {
		t.Error("Reset left eviction stats")
	}
}
