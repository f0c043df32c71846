package frontend

import (
	"slices"
	"testing"

	"ghrpsim/internal/cache"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

func TestBlockStreamMatchesEngineAccesses(t *testing.T) {
	recs := testRecords(t, 40_000)
	cfg := DefaultConfig()
	blocks, _, err := BlockStream(recs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatal("empty block stream")
	}
	total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	// The simulator with no warm-up must report exactly as many I-cache
	// accesses as the stream has blocks (same coalescing rule).
	res := replayRecords(t, cfg, PolicyLRU, 0, recs)
	if res.ICache.Accesses != uint64(len(blocks)) {
		t.Errorf("engine accesses %d != stream length %d", res.ICache.Accesses, len(blocks))
	}
	if res.TotalInstructions != total {
		t.Errorf("engine instructions %d != stream total %d", res.TotalInstructions, total)
	}
	// No consecutive duplicates (coalescing invariant).
	for i := 1; i < len(blocks); i++ {
		if blocks[i] == blocks[i-1] {
			t.Fatalf("consecutive duplicate block at %d", i)
		}
	}
}

func TestBlockStreamLRUEquivalence(t *testing.T) {
	// Replaying the block stream through a bare LRU cache must produce
	// exactly the engine's LRU miss count (no warm-up).
	recs := testRecords(t, 30_000)
	cfg := DefaultConfig()
	blocks, _, err := BlockStream(recs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := replayRecords(t, cfg, PolicyLRU, 0, recs)

	lru := newBareLRU()
	c, err := cache.New(cfg.ICache.Sets(), cfg.ICache.Ways, lru)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		c.Access(cache.Access{Block: b})
	}
	if c.Stats().Misses != res.ICache.Misses {
		t.Errorf("stream misses %d != engine misses %d", c.Stats().Misses, res.ICache.Misses)
	}
}

// BlockStream's skip index is the OPT warm-up boundary: the block list
// does not depend on the warm-up, and the accesses past the skip index
// are exactly the ones the simulator counts under the same warm-up.
func TestBlockStreamSkipIndex(t *testing.T) {
	recs := testRecords(t, 30_000)
	cfg := DefaultConfig()
	blocks, zero, err := BlockStream(recs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != 0 {
		t.Errorf("zero warm-up index = %d", zero)
	}
	total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	warmed, half, err := BlockStream(recs, cfg, total/2)
	if err != nil {
		t.Fatal(err)
	}
	if half <= 0 || half >= len(blocks) {
		t.Errorf("half index %d of %d", half, len(blocks))
	}
	if !slices.Equal(warmed, blocks) {
		t.Error("block list depends on the warm-up")
	}
	if res := replayRecords(t, cfg, PolicyLRU, total/2, recs); res.ICache.Accesses != uint64(len(blocks)-half) {
		t.Errorf("simulator counts %d accesses after warm-up, skip index leaves %d", res.ICache.Accesses, len(blocks)-half)
	}
	if _, _, err := BlockStream(recs, Config{InstrBytes: 0, ICache: cfg.ICache}, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestOPTBeatsOnlinePoliciesOnEngineStream checks the offline oracle's
// bound end to end: on the demand stream the simulator issues under the
// default config (wrong-path and prefetch off), Belady's MIN with
// bypass misses no more than any of the eight policies. Both sides
// count the whole stream, warm-up included: MIN is optimal for total
// misses, not for a suffix that starts from a different cache state.
// The inputs are the test profile plus a few generated workloads.
func TestOPTBeatsOnlinePoliciesOnEngineStream(t *testing.T) {
	cfg := DefaultConfig()
	type stream struct {
		name string
		recs []trace.Record
	}
	streams := []stream{{"test profile", testRecords(t, 40_000)}}
	gen := workload.SuiteGen{N: 6}
	for i := 0; i < gen.Len(); i++ {
		spec := gen.At(i)
		prog, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		recs, err := GenerateRecords(prog, 1, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{spec.Name, recs})
	}
	kinds := allPolicies()
	for _, s := range streams {
		blocks, _, err := BlockStream(s.recs, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		ost, err := opt.Simulate(blocks, cfg.ICache.Sets(), cfg.ICache.Ways, 0)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := NewFanOut(cfg, kinds, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s.recs {
			fo.Process(r)
		}
		for i, res := range fo.Results() {
			if res.ICache.Accesses != uint64(len(blocks)) {
				t.Errorf("%s: %v issued %d I-cache accesses, the block stream has %d", s.name, kinds[i], res.ICache.Accesses, len(blocks))
			}
			if ost.Misses > res.ICache.Misses {
				t.Errorf("%s: OPT misses %d > %v misses %d", s.name, ost.Misses, kinds[i], res.ICache.Misses)
			}
		}
	}
}

// bareLRU is a minimal local LRU policy for equivalence tests.
type bareLRU struct {
	ways int
	last []uint64
	now  uint64
}

func newBareLRU() *bareLRU { return &bareLRU{} }

func (p *bareLRU) Name() string { return "LRU" }
func (p *bareLRU) Attach(sets, ways int) {
	p.ways = ways
	p.last = make([]uint64, sets*ways)
}
func (p *bareLRU) OnHit(a cache.Access, way int) { p.now++; p.last[a.Set*p.ways+way] = p.now }
func (p *bareLRU) Victim(a cache.Access) (int, bool) {
	base := a.Set * p.ways
	best, bestAt := 0, p.last[base]
	for w := 1; w < p.ways; w++ {
		if at := p.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best, false
}
func (p *bareLRU) MayBypass(cache.Access) bool       { return false }
func (p *bareLRU) OnBypass(cache.Access)             {}
func (p *bareLRU) OnInsert(a cache.Access, way int)  { p.now++; p.last[a.Set*p.ways+way] = p.now }
func (p *bareLRU) OnEvict(cache.Access, int, uint64) {}
func (p *bareLRU) Reset()                            { p.now = 0 }

func TestExtendedPoliciesRun(t *testing.T) {
	recs := testRecords(t, 20_000)
	for _, kind := range ExtendedPolicies() {
		res := simulateRecords(t, smallConfig(), kind, recs)
		if res.ICache.Accesses == 0 {
			t.Errorf("%v: no accesses", kind)
		}
	}
	if len(ExtendedPolicies()) != 8 {
		t.Errorf("extended policies = %d, want 8", len(ExtendedPolicies()))
	}
}

func TestEngineAccessors(t *testing.T) {
	fo := soloFanOut(t, DefaultConfig(), PolicyGHRP, 0)
	if fo.ICache(0) == nil || fo.BTB(0) == nil || fo.GHRP(0) == nil || fo.front.ras == nil || fo.front.ind == nil {
		t.Error("nil accessor")
	}
	if fo.Instructions() != 0 {
		t.Error("fresh fan-out has instructions")
	}
	r := Result{CountedInstrs: 1000}
	r.BTB.Misses = 5
	r.Branch.Mispredictions = 3
	r.Branch.Predictions = 10
	if r.BTBMPKI() != 5 {
		t.Errorf("BTBMPKI %v", r.BTBMPKI())
	}
	if r.BranchMPKI() != 3 {
		t.Errorf("BranchMPKI %v", r.BranchMPKI())
	}
}
