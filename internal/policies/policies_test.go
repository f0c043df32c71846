package policies

import (
	"testing"
	"testing/quick"

	"ghrpsim/internal/cache"
)

func mustCache(t *testing.T, sets, ways int, p cache.Policy) *cache.Cache {
	t.Helper()
	c, err := cache.New(sets, ways, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLRUOrder(t *testing.T) {
	c := mustCache(t, 1, 4, NewLRU())
	// Fill ways with blocks 0..3 (all map to set 0 with 1 set).
	for b := uint64(0); b < 4; b++ {
		c.Access(cache.Access{Block: b})
	}
	// Touch 0 and 1 so 2 is LRU.
	c.Access(cache.Access{Block: 0})
	c.Access(cache.Access{Block: 1})
	// Miss: should evict 2.
	c.Access(cache.Access{Block: 9})
	if c.Lookup(2) {
		t.Error("LRU did not evict least recently used block")
	}
	for _, b := range []uint64{0, 1, 3, 9} {
		if !c.Lookup(b) {
			t.Errorf("block %d should be resident", b)
		}
	}
}

func TestLRUSequentialScanEvictsInOrder(t *testing.T) {
	c := mustCache(t, 1, 2, NewLRU())
	c.Access(cache.Access{Block: 0})
	c.Access(cache.Access{Block: 1})
	c.Access(cache.Access{Block: 2}) // evicts 0
	if c.Lookup(0) || !c.Lookup(1) || !c.Lookup(2) {
		t.Error("scan eviction order wrong")
	}
	c.Access(cache.Access{Block: 3}) // evicts 1
	if c.Lookup(1) || !c.Lookup(2) || !c.Lookup(3) {
		t.Error("second scan eviction wrong")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := mustCache(t, 1, 2, NewFIFO())
	c.Access(cache.Access{Block: 0})
	c.Access(cache.Access{Block: 1})
	// Heavily reuse block 0 — FIFO must still evict it first.
	for i := 0; i < 10; i++ {
		c.Access(cache.Access{Block: 0})
	}
	c.Access(cache.Access{Block: 2})
	if c.Lookup(0) {
		t.Error("FIFO evicted by recency, not insertion order")
	}
	if !c.Lookup(1) || !c.Lookup(2) {
		t.Error("FIFO resident set wrong")
	}
}

func TestRandomDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		c := mustCache(t, 2, 2, NewRandom(seed))
		var out []bool
		for i := uint64(0); i < 64; i++ {
			out = append(out, c.Access(cache.Access{Block: i % 8}))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy is not deterministic for equal seeds")
		}
	}
	diff := run(43)
	same := true
	for i := range a {
		if a[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical outcome (suspicious)")
	}
}

func TestRandomVictimInRange(t *testing.T) {
	p := NewRandom(7)
	p.Attach(4, 8)
	f := func(set uint8) bool {
		w, bypass := p.Victim(cache.Access{Set: int(set) % 4})
		return !bypass && w >= 0 && w < 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSRRIPInsertionIsDistant(t *testing.T) {
	// SRRIP resists scans: a periodically re-referenced block survives a
	// stream of single-use blocks that would flush it under LRU. Block
	// 100 is touched every 6 scan misses; SRRIP ages it at most one RRPV
	// step per 3 misses, so it never reaches the distant value, while
	// 4-way LRU evicts it after any 4 intervening distinct misses.
	scan := func(p cache.Policy) (hits int) {
		c := mustCache(t, 1, 4, p)
		c.Access(cache.Access{Block: 100})
		c.Access(cache.Access{Block: 100})
		next := uint64(0)
		for round := 0; round < 8; round++ {
			for i := 0; i < 6; i++ {
				c.Access(cache.Access{Block: next})
				next++
			}
			if c.Access(cache.Access{Block: 100}) {
				hits++
			}
		}
		return hits
	}
	if got := scan(NewSRRIP()); got != 8 {
		t.Errorf("SRRIP hit %d/8 periodic re-references, want 8", got)
	}
	if got := scan(NewLRU()); got != 0 {
		t.Errorf("LRU hit %d/8 periodic re-references, want 0", got)
	}
}

func TestSRRIPAgesWhenNoDistantBlock(t *testing.T) {
	p := NewSRRIP()
	c := mustCache(t, 1, 2, p)
	c.Access(cache.Access{Block: 0})
	c.Access(cache.Access{Block: 1})
	c.Access(cache.Access{Block: 0}) // RRPV 0
	c.Access(cache.Access{Block: 1}) // RRPV 0: no distant block remains
	// Victim must still terminate and return a valid way via aging.
	w, bypass := p.Victim(cache.Access{Set: 0})
	if bypass || w < 0 || w >= 2 {
		t.Errorf("Victim = (%d, %v), want valid way", w, bypass)
	}
}

func TestSRRIPBitsClamped(t *testing.T) {
	lo := NewSRRIPBits(0)
	if lo.bits != 1 {
		t.Errorf("bits clamped to %d, want 1", lo.bits)
	}
	hi := NewSRRIPBits(20)
	if hi.bits != 8 {
		t.Errorf("bits clamped to %d, want 8", hi.bits)
	}
}

func TestSDBPLearnsDeadTrace(t *testing.T) {
	cfg := SDBPConfig{DeadSum: 6, BypassSum: 1 << 20} // disable bypass
	p := NewSDBPConfig(cfg)
	c := mustCache(t, 1, 2, p)
	// Signature 'deadPC' always inserts blocks that die without reuse;
	// after enough evictions SDBP must predict it dead.
	deadPC := uint64(0x4000)
	for i := 0; i < 64; i++ {
		c.Access(cache.Access{Block: 10 + uint64(i)%8, PC: deadPC})
	}
	if !p.PredictDead(deadPC) {
		t.Error("SDBP failed to learn an always-dead signature")
	}
	// A constantly reused signature must be predicted live.
	livePC := uint64(0x8000)
	for i := 0; i < 64; i++ {
		c.Access(cache.Access{Block: 500, PC: livePC})
	}
	if p.PredictDead(livePC) {
		t.Error("SDBP predicted a constantly reused signature dead")
	}
}

func TestSDBPBypass(t *testing.T) {
	cfg := SDBPConfig{DeadSum: 6, BypassSum: 12}
	p := NewSDBPConfig(cfg)
	c := mustCache(t, 1, 2, p)
	deadPC := uint64(0x4000)
	for i := 0; i < 200; i++ {
		c.Access(cache.Access{Block: 10 + uint64(i)%16, PC: deadPC})
	}
	if c.Stats().Bypasses == 0 {
		t.Error("SDBP never bypassed a hot dead signature")
	}
}

func TestSDBPVictimPrefersPredictedDead(t *testing.T) {
	cfg := SDBPConfig{DeadSum: 4, BypassSum: 1 << 20}
	p := NewSDBPConfig(cfg)
	p.Attach(1, 2)
	// Force table state: signature of PC 0x4000 is dead.
	for i := 0; i < 16; i++ {
		p.train(p.signature(0x4000), true)
	}
	// Insert way 0 with dead PC, way 1 with clean PC.
	p.OnInsert(cache.Access{Block: 1, PC: 0x4000, Set: 0}, 0)
	p.OnInsert(cache.Access{Block: 2, PC: 0xF000, Set: 0}, 1)
	// Make way 0 the MRU so plain LRU would pick way 1.
	p.rec.Touch(0, 0)
	w, bypass := p.Victim(cache.Access{Block: 3, PC: 0xF100, Set: 0})
	if bypass || w != 0 {
		t.Errorf("Victim = (%d, %v), want predicted-dead way 0", w, bypass)
	}
}

func TestSDBPReset(t *testing.T) {
	p := NewSDBPConfig(SDBPConfig{})
	p.Attach(2, 2)
	p.OnInsert(cache.Access{Block: 1, PC: 0x40, Set: 0}, 0)
	for i := 0; i < 50; i++ {
		p.train(p.signature(0x40), true)
	}
	p.Reset()
	if p.PredictDead(0x40) {
		t.Error("Reset did not clear tables")
	}
	for _, set := range p.smpSets {
		if set.fill != 0 {
			t.Fatal("Reset did not clear sampler")
		}
	}
}

func TestSDBPCountersSaturate(t *testing.T) {
	p := NewSDBPConfig(SDBPConfig{CounterMax: 3, DeadSum: 6, BypassSum: 1 << 20})
	sig := p.signature(0x1234)
	for i := 0; i < 100; i++ {
		p.train(sig, true)
	}
	if got := p.sum(sig); got != 9 {
		t.Errorf("saturated sum = %d, want 9 (3 tables x max 3)", got)
	}
	for i := 0; i < 100; i++ {
		p.train(sig, false)
	}
	if got := p.sum(sig); got != 0 {
		t.Errorf("floor sum = %d, want 0", got)
	}
}

func TestSDBPConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  SDBPConfig
		ok   bool
	}{
		{"defaults", SDBPConfig{}, true},
		{"byte counters", SDBPConfig{CounterMax: 255}, true},
		{"one-step counters", SDBPConfig{CounterMax: 1}, true},
		{"counter past a byte", SDBPConfig{CounterMax: 256}, false},
		{"negative counter max", SDBPConfig{CounterMax: -1}, false},
		{"one-entry tables", SDBPConfig{TableBits: 1}, true},
		{"largest tables", SDBPConfig{TableBits: 24}, true},
		{"tables too large", SDBPConfig{TableBits: 25}, false},
		{"negative table bits", SDBPConfig{TableBits: -3}, false},
		{"negative dead sum", SDBPConfig{DeadSum: -1}, false},
		{"negative bypass sum", SDBPConfig{BypassSum: -1}, false},
		{"bypass out of reach", SDBPConfig{BypassSum: 1 << 20}, true},
		{"set-sampled", SDBPConfig{SamplerSets: 4}, true},
		{"negative sampler sets", SDBPConfig{SamplerSets: -1}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok %v", c.name, c.cfg, err, c.ok)
		}
	}
}

func TestXorshiftZeroSeed(t *testing.T) {
	x := newXorshift(0)
	if x.next() == 0 {
		t.Error("zero seed must still produce a nonzero stream")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[cache.Policy]string{
		NewLRU():                    "LRU",
		NewFIFO():                   "FIFO",
		NewRandom(1):                "Random",
		NewSRRIP():                  "SRRIP",
		NewSDBPConfig(SDBPConfig{}): "SDBP",
	}
	for p, want := range names {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
