package core

import (
	"testing"

	"ghrpsim/internal/cache"
)

func newGHRPCache(t *testing.T, sets, ways int, cfg Config) (*cache.Cache, *ICachePolicy) {
	t.Helper()
	p, err := NewICachePolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(sets, ways, p)
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

func TestGHRPName(t *testing.T) {
	_, p := newGHRPCache(t, 2, 2, Config{})
	if p.Name() != "GHRP" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestGHRPFallsBackToLRUWhenUntrained(t *testing.T) {
	c, _ := newGHRPCache(t, 1, 2, Config{})
	c.Access(cache.Access{Block: 0, PC: 0x000})
	c.Access(cache.Access{Block: 1, PC: 0x040})
	c.Access(cache.Access{Block: 0, PC: 0x000}) // 0 is MRU
	c.Access(cache.Access{Block: 2, PC: 0x080}) // untrained: evict LRU = 1
	if c.Lookup(1) {
		t.Error("untrained GHRP did not evict the LRU block")
	}
	if !c.Lookup(0) || !c.Lookup(2) {
		t.Error("resident set wrong after LRU fallback")
	}
}

// trainDeadSignature drives a GHRP cache so that the path signature for
// accesses with pc is repeatedly observed dead (inserted, never reused,
// evicted).
func TestGHRPLearnsDeadPath(t *testing.T) {
	cfg := Config{DisableBypass: true}
	c, p := newGHRPCache(t, 1, 2, cfg)
	// Alternate: hot block 100 reused constantly via one path; cold
	// blocks inserted via a distinctive dead path and never reused.
	for i := 0; i < 200; i++ {
		c.Access(cache.Access{Block: 100, PC: 0x1000})
		c.Access(cache.Access{Block: 200 + uint64(i*2)%32, PC: 0x2004})
	}
	dead, lru := p.EvictionBreakdown()
	if dead == 0 {
		t.Errorf("GHRP never chose a predicted-dead victim (dead=%d lru=%d)", dead, lru)
	}
	// The hot block must be resident essentially always: count hits.
	st := c.Stats()
	if st.Hits < 150 {
		t.Errorf("hot block hit only %d times; GHRP failed to protect it", st.Hits)
	}
}

func TestGHRPBypassesDeadStream(t *testing.T) {
	c, _ := newGHRPCache(t, 1, 2, Config{})
	for i := 0; i < 400; i++ {
		c.Access(cache.Access{Block: 100, PC: 0x1000})
		c.Access(cache.Access{Block: 200 + uint64(i*2)%64, PC: 0x2004})
	}
	if c.Stats().Bypasses == 0 {
		t.Error("GHRP with saturated dead counters never bypassed")
	}
}

func TestGHRPBypassDisable(t *testing.T) {
	c, _ := newGHRPCache(t, 1, 2, Config{DisableBypass: true})
	for i := 0; i < 400; i++ {
		c.Access(cache.Access{Block: 100, PC: 0x1000})
		c.Access(cache.Access{Block: 200 + uint64(i*2)%64, PC: 0x2004})
	}
	if c.Stats().Bypasses != 0 {
		t.Error("DisableBypass did not disable bypass")
	}
}

func TestGHRPHitTrainsLive(t *testing.T) {
	_, p := newGHRPCache(t, 1, 2, Config{DisableBypass: true})
	// Manually drive the policy protocol: insert a block, saturate its
	// signature dead, then a hit must decrement those counters.
	a := cache.Access{Block: 5, PC: 0x40, Set: 0}
	sig := p.hist.Signature(a.PC) // the signature the insertion records
	p.OnInsert(a, 0)
	p.pred.Train(sig, true)
	p.pred.Train(sig, true)
	before := p.pred.Counters(sig)
	p.OnHit(a, 0)
	after := p.pred.Counters(sig)
	for i := range before {
		if after[i] != before[i]-1 {
			t.Errorf("table %d counter %d -> %d, want decrement", i, before[i], after[i])
		}
	}
}

func TestGHRPEvictTrainsDead(t *testing.T) {
	_, p := newGHRPCache(t, 1, 2, Config{DisableBypass: true, DeadTraining: TrainAllEvictions})
	a := cache.Access{Block: 5, PC: 0x40, Set: 0}
	sig := p.hist.Signature(a.PC) // the signature the insertion records
	p.OnInsert(a, 0)
	before := p.pred.Counters(sig)
	p.OnEvict(cache.Access{Block: 9, PC: 0x99, Set: 0}, 0, 5)
	after := p.pred.Counters(sig)
	for i := range before {
		if after[i] != before[i]+1 {
			t.Errorf("table %d counter %d -> %d, want increment", i, before[i], after[i])
		}
	}
}

func TestGHRPDeadTrainingLRUHalfGate(t *testing.T) {
	// Default mode: an eviction from the MRU half must NOT train dead;
	// an eviction from the LRU half must.
	_, p := newGHRPCache(t, 1, 4, Config{DisableBypass: true})
	pcs := []uint64{0x40, 0x80, 0xC0, 0x100}
	sigs := make([]uint16, len(pcs)) // the signature each insertion records
	for w, pc := range pcs {
		sigs[w] = p.hist.Signature(pc)
		p.OnInsert(cache.Access{Block: uint64(w + 1), PC: pc, Set: 0}, w)
	}
	// Way 3 is MRU: evicting it must not train.
	sig3 := sigs[3]
	before := p.pred.Counters(sig3)
	p.OnEvict(cache.Access{Block: 9, Set: 0}, 3, 4)
	for i, c := range p.pred.Counters(sig3) {
		if c != before[i] {
			t.Errorf("MRU eviction trained table %d", i)
		}
	}
	// Way 0 is LRU: evicting it must train.
	sig0 := sigs[0]
	before = p.pred.Counters(sig0)
	p.OnEvict(cache.Access{Block: 9, Set: 0}, 0, 1)
	for i, c := range p.pred.Counters(sig0) {
		if c != before[i]+1 {
			t.Errorf("LRU eviction did not train table %d", i)
		}
	}
}

// TestGHRPRecencyCutoffWideSet pins the LRU-half cutoff above 16 ways:
// with ways 16-31 touched before ways 0-15, the median of all 32
// timestamps is 16, while a median of ways 0-15 alone would read 24.
func TestGHRPRecencyCutoffWideSet(t *testing.T) {
	_, p := newGHRPCache(t, 1, 32, Config{DisableBypass: true})
	for i := 0; i < 32; i++ {
		w := (i + 16) % 32
		p.OnInsert(cache.Access{Block: uint64(w + 1), PC: uint64(w+1) << 6, Set: 0}, w)
	}
	if got := p.recencyCutoff(0); got != 16 {
		t.Errorf("recencyCutoff = %d, want 16", got)
	}
}

func TestGHRPHistoryAdvancesOncePerAccess(t *testing.T) {
	_, p := newGHRPCache(t, 1, 2, Config{})
	h0 := p.History().Current()
	p.OnInsert(cache.Access{Block: 1, PC: 0x7, Set: 0}, 0)
	h1 := p.History().Current()
	if h1 == h0 {
		t.Fatal("history did not advance on insert")
	}
	p.OnHit(cache.Access{Block: 1, PC: 0x7, Set: 0}, 0)
	h2 := p.History().Current()
	if h2 == h1 {
		t.Fatal("history did not advance on hit")
	}
	p.OnBypass(cache.Access{Block: 2, PC: 0x7, Set: 0})
	if p.History().Current() == h2 {
		t.Fatal("history did not advance on bypass")
	}
}

func TestGHRPBlockPrediction(t *testing.T) {
	c, p := newGHRPCache(t, 4, 2, Config{DisableBypass: true})
	c.Access(cache.Access{Block: 5, PC: 0x140})
	dead, ok := p.BlockPrediction(5, 2)
	if !ok {
		t.Fatal("BlockPrediction did not find a resident block")
	}
	if dead {
		t.Error("untrained block predicted dead")
	}
	if _, ok := p.BlockPrediction(77, 2); ok {
		t.Error("BlockPrediction found a non-resident block")
	}
	// Unattached policy must not panic.
	raw, err := NewICachePolicy(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := raw.BlockPrediction(1, 2); ok {
		t.Error("unattached policy returned ok")
	}
}

func TestGHRPReset(t *testing.T) {
	c, p := newGHRPCache(t, 1, 2, Config{})
	for i := 0; i < 50; i++ {
		c.Access(cache.Access{Block: uint64(i % 8), PC: uint64(i * 4)})
	}
	c.Reset()
	if p.History().Current() != 0 {
		t.Error("Reset left history")
	}
	if d, l := p.EvictionBreakdown(); d != 0 || l != 0 {
		t.Error("Reset left eviction stats")
	}
	if p.pred.Stats() != (PredictorStats{}) {
		t.Error("Reset left predictor stats")
	}
	for _, m := range p.meta {
		if m.valid {
			t.Fatal("Reset left metadata")
		}
	}
}

// TestGHRPBeatsLRUOnPhasedWorkload is the package-level sanity check of
// the headline claim: on a workload whose working set exceeds the cache
// and contains one-shot dead code reached along distinctive paths, GHRP
// must beat LRU.
func TestGHRPBeatsLRUOnPhasedWorkload(t *testing.T) {
	run := func(mk func() cache.Policy) cache.Stats {
		c, err := cache.New(16, 4, mk())
		if err != nil {
			t.Fatal(err)
		}
		// Hot loop of 32 blocks (half the 64-block cache) interleaved
		// with a cold sequential stream (dead on arrival). The loop
		// blocks are reused every iteration; the stream never.
		cold := uint64(10000)
		for iter := 0; iter < 400; iter++ {
			for b := uint64(0); b < 32; b++ {
				pc := b << 6
				c.Access(cache.Access{Block: b, PC: pc})
				// Two cold blocks per hot block: pressure exceeds ways.
				c.Access(cache.Access{Block: cold, PC: 0x100000 + (cold&3)<<2})
				cold++
				c.Access(cache.Access{Block: cold, PC: 0x200000 + (cold&3)<<2})
				cold++
			}
		}
		return c.Stats()
	}
	lru := run(func() cache.Policy { return newLRUForTest() })
	ghrp := run(func() cache.Policy {
		p, err := NewICachePolicy(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	if ghrp.Misses >= lru.Misses {
		t.Errorf("GHRP misses %d >= LRU misses %d on phased workload", ghrp.Misses, lru.Misses)
	}
}

// newLRUForTest is a tiny local LRU to avoid an import cycle with the
// policies package (which tests against core elsewhere).
type testLRU struct {
	ways int
	last []uint64
	now  uint64
}

func newLRUForTest() *testLRU { return &testLRU{} }

func (p *testLRU) Name() string { return "LRU" }
func (p *testLRU) Attach(sets, ways int) {
	p.ways = ways
	p.last = make([]uint64, sets*ways)
}
func (p *testLRU) OnHit(a cache.Access, way int) { p.now++; p.last[a.Set*p.ways+way] = p.now }
func (p *testLRU) Victim(a cache.Access) (int, bool) {
	base := a.Set * p.ways
	best, bestAt := 0, p.last[base]
	for w := 1; w < p.ways; w++ {
		if at := p.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best, false
}
func (p *testLRU) MayBypass(cache.Access) bool       { return false }
func (p *testLRU) OnBypass(cache.Access)             {}
func (p *testLRU) OnInsert(a cache.Access, way int)  { p.now++; p.last[a.Set*p.ways+way] = p.now }
func (p *testLRU) OnEvict(cache.Access, int, uint64) {}
func (p *testLRU) Reset()                            { p.now = 0; p.last = make([]uint64, len(p.last)) }
