package frontend

import (
	"slices"
	"testing"

	"ghrpsim/internal/cache"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// blockStream is the test-only reference for the access tap: it rebuilds
// the coalesced I-cache block sequence of a record stream straight from
// Fetcher.Advance, independently of front.decide, with fetch-buffer
// coalescing (an access to the block just accessed reads the fetch
// buffer instead). skip counts the accesses of the records fetched while
// fewer than warmupInstrs instructions preceded them: the simulator's
// warm-up rule, 0 for no warm-up.
func blockStream(recs []trace.Record, cfg Config, warmupInstrs uint64) (blocks []uint64, skip int, err error) {
	f, err := trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return nil, 0, err
	}
	var total, lastBlock uint64
	haveLast := false
	for _, r := range recs {
		warm := total < warmupInstrs
		g := f.Advance(r)
		for b := g.First; b <= g.Last; b++ {
			if haveLast && b == lastBlock {
				continue
			}
			lastBlock, haveLast = b, true
			blocks = append(blocks, b)
		}
		total += g.Instrs
		if warm {
			skip = len(blocks)
		}
	}
	return blocks, skip, nil
}

// tapRecords replays recs through a fan-out of kinds under the warm-up
// limit with an access log tapped, returning the log and the results.
func tapRecords(t testing.TB, cfg Config, kinds []PolicyKind, warmupLimit uint64, recs []trace.Record) (*AccessLog, []Result) {
	t.Helper()
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		t.Fatal(err)
	}
	log := new(AccessLog)
	fo.TapAccesses(log)
	for _, r := range recs {
		fo.Process(r)
	}
	return log, fo.Results()
}

func TestBlockStreamMatchesEngineAccesses(t *testing.T) {
	recs := testRecords(t, 40_000)
	cfg := DefaultConfig()
	log, res := tapRecords(t, cfg, []PolicyKind{PolicyLRU}, 0, recs)
	blocks := log.Blocks
	if len(blocks) == 0 {
		t.Fatal("empty block stream")
	}
	ref, _, err := blockStream(recs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(blocks, ref) {
		t.Errorf("tapped stream (%d blocks) differs from the reference (%d blocks)", len(blocks), len(ref))
	}
	total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	// The simulator with no warm-up must report exactly as many I-cache
	// accesses as the stream has blocks (same coalescing rule).
	if res[0].ICache.Accesses != uint64(len(blocks)) {
		t.Errorf("engine accesses %d != stream length %d", res[0].ICache.Accesses, len(blocks))
	}
	if res[0].TotalInstructions != total {
		t.Errorf("engine instructions %d != stream total %d", res[0].TotalInstructions, total)
	}
	// No consecutive duplicates (coalescing invariant).
	for i := 1; i < len(blocks); i++ {
		if blocks[i] == blocks[i-1] {
			t.Fatalf("consecutive duplicate block at %d", i)
		}
	}
}

func TestBlockStreamLRUEquivalence(t *testing.T) {
	// Replaying the tapped block stream through a bare LRU cache must
	// produce exactly the engine's LRU miss count (no warm-up).
	recs := testRecords(t, 30_000)
	cfg := DefaultConfig()
	log, res := tapRecords(t, cfg, []PolicyKind{PolicyLRU}, 0, recs)

	lru := newBareLRU()
	c, err := cache.New(cfg.ICache.Sets(), cfg.ICache.Ways, lru)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range log.Blocks {
		c.Access(cache.Access{Block: b})
	}
	if c.Stats().Misses != res[0].ICache.Misses {
		t.Errorf("stream misses %d != engine misses %d", c.Stats().Misses, res[0].ICache.Misses)
	}
}

// The tap's skip index is the OPT warm-up boundary: the block list does
// not depend on the warm-up, and the accesses past the skip index are
// exactly the ones the simulator counts under the same warm-up.
func TestBlockStreamSkipIndex(t *testing.T) {
	recs := testRecords(t, 30_000)
	cfg := DefaultConfig()
	kinds := []PolicyKind{PolicyLRU}
	zero, _ := tapRecords(t, cfg, kinds, 0, recs)
	blocks := zero.Blocks
	if zero.Skip != 0 {
		t.Errorf("zero warm-up index = %d", zero.Skip)
	}
	total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	warmed, res := tapRecords(t, cfg, kinds, total/2, recs)
	half := warmed.Skip
	if half <= 0 || half >= len(blocks) {
		t.Errorf("half index %d of %d", half, len(blocks))
	}
	if !slices.Equal(warmed.Blocks, blocks) {
		t.Error("block list depends on the warm-up")
	}
	if res[0].ICache.Accesses != uint64(len(blocks)-half) {
		t.Errorf("simulator counts %d accesses after warm-up, skip index leaves %d", res[0].ICache.Accesses, len(blocks)-half)
	}
	if _, refHalf, err := blockStream(recs, cfg, total/2); err != nil || refHalf != half {
		t.Errorf("reference skip index %d (%v), tap %d", refHalf, err, half)
	}
	if _, _, err := blockStream(recs, Config{InstrBytes: 0, ICache: cfg.ICache}, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestAccessTapMatchesReference pins the tap to the reference
// derivation, blocks and skip index, over every way a fan-out can be
// driven: Process with Flush at uneven boundaries and StreamProgram;
// warm-up off and at half the stream;
// prefetch on and off; wrong-path fetch off and injected. Every stream
// after the first runs on the same fan-out after a Reset, with the log
// attached once. The streams are the test profile and a SuiteGen
// sample, each longer than one decision chunk.
func TestAccessTapMatchesReference(t *testing.T) {
	type stream struct {
		name   string
		prog   *workload.Program
		target uint64
	}
	streams := []stream{{"test profile", fanOutProgram(t), 200_000}}
	gen := workload.SuiteGen{N: 40}
	for _, i := range []int{0, 13, 27} {
		spec := gen.At(i)
		prog, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{spec.Name, prog, 200_000})
	}
	kinds := []PolicyKind{PolicyLRU, PolicyGHRP, PolicySRRIP}
	for _, s := range streams {
		recs, err := GenerateRecords(s.prog, 1, s.target)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) <= chunkRecords {
			t.Fatalf("%s: %d records fit one chunk", s.name, len(recs))
		}
		for _, wp := range []WrongPathMode{WrongPathOff, WrongPathInject} {
			for _, prefetch := range []bool{false, true} {
				cfg := smallConfig()
				cfg.WrongPath, cfg.NextLinePrefetch = wp, prefetch
				total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
				if err != nil {
					t.Fatal(err)
				}
				var fo *FanOut
				var log AccessLog
				for _, warm := range []uint64{0, total / 2} {
					want, wantSkip, err := blockStream(recs, cfg, warm)
					if err != nil {
						t.Fatal(err)
					}
					if warm > 0 && (wantSkip <= 0 || wantSkip >= len(want)) {
						t.Fatalf("%s: reference skip %d of %d at warm-up %d", s.name, wantSkip, len(want), warm)
					}
					check := func(how string) {
						t.Helper()
						if !slices.Equal(log.Blocks, want) || log.Skip != wantSkip {
							t.Errorf("%s wrong-path %v prefetch %v warm-up %d, %s: tap logged %d blocks (skip %d), reference %d (skip %d)",
								s.name, wp, prefetch, warm, how, len(log.Blocks), log.Skip, len(want), wantSkip)
						}
					}
					reset := func() {
						if fo == nil {
							if fo, err = NewFanOut(cfg, kinds, warm); err != nil {
								t.Fatal(err)
							}
							fo.TapAccesses(&log)
							return
						}
						fo.Reset(warm)
					}
					reset()
					for i, r := range recs {
						fo.Process(r)
						if i%4099 == 17 || i%chunkRecords == chunkRecords-2 {
							fo.Flush()
						}
					}
					fo.Results()
					check("Process with uneven flushes")
					reset()
					if _, err := fo.StreamProgram(s.prog, 1, s.target, StreamOptions{}); err != nil {
						t.Fatal(err)
					}
					check("StreamProgram")
				}
				// A nil log detaches the tap.
				fo.TapAccesses(nil)
				fo.Reset(0)
				if _, err := fo.StreamProgram(s.prog, 1, s.target, StreamOptions{}); err != nil {
					t.Fatal(err)
				}
				if len(log.Blocks) == 0 {
					t.Error("detaching the tap emptied the log")
				}
				if fo.tap != nil {
					t.Error("nil log left the tap attached")
				}
			}
		}
	}
}

// With the log grown to a stream's length, the tap allocates nothing:
// neither per record on the Process path nor per replay on the
// streaming path.
func TestAccessTapAllocs(t *testing.T) {
	recs := allocTestRecords(t)
	fo, err := NewFanOut(allocTestConfig(), []PolicyKind{PolicyLRU, PolicyGHRP}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var log AccessLog
	fo.TapAccesses(&log)
	for _, r := range recs {
		fo.Process(r)
	}
	fo.Reset(10_000)
	if avg := steadyStateAllocs(t, recs, func(r trace.Record) { fo.Process(r) }); avg != 0 {
		t.Errorf("tapped Process allocates %.3f objects/record in steady state, want 0", avg)
	}

	prog := fanOutProgram(t)
	const target = 150_000
	stream := func() {
		fo.Reset(10_000)
		if _, err := fo.StreamProgram(prog, 1, target, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	fo.TapAccesses(nil)
	stream()
	untapped := testing.AllocsPerRun(3, stream)
	fo.TapAccesses(&log)
	stream()
	if tapped := testing.AllocsPerRun(3, stream); tapped != untapped {
		t.Errorf("tapped StreamProgram allocates %v objects per replay, untapped %v", tapped, untapped)
	}
}

// TestOPTBeatsOnlinePoliciesOnEngineStream checks the offline oracle's
// bound end to end: on the demand stream the simulator issues under the
// default config (wrong-path and prefetch off), read from its access
// tap, Belady's MIN with bypass misses no more than any of the eight
// policies. Both sides count the whole stream, warm-up included: MIN is
// optimal for total misses, not for a suffix that starts from a
// different cache state. The inputs are the test profile plus a few
// generated workloads.
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
		log, results := tapRecords(t, cfg, kinds, 0, s.recs)
		blocks := log.Blocks
		ost, err := opt.Simulate(blocks, cfg.ICache.Sets(), cfg.ICache.Ways, log.Skip)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
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
