package frontend

import (
	"fmt"
	"strings"
	"testing"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

func testProfile(seed uint64) workload.Profile {
	return workload.Profile{
		Name:         "fe-test",
		Category:     trace.ShortServer,
		Seed:         seed,
		Funcs:        400,
		BlocksMin:    6,
		BlocksMax:    14,
		InstrsMin:    4,
		InstrsMax:    12,
		LoopFrac:     0.5,
		TripMin:      4,
		TripMax:      40,
		CondFrac:     0.3,
		CallFrac:     0.25,
		IndirectFrac: 0.1,
		ColdFrac:     0.2,
		ColdBias:     0.01,
		Phases:       3,
		PhaseFuncs:   160,
		InitBlocks:   40,
		ScanFrac:     0.006, // two recurring scan functions
		ScanLenMul:   60,
		ScanWeight:   0.3,
		ZipfTheta:    0.9,
		BurstMin:     1,
		BurstMax:     8,
		UtilityFrac:  0.15,
	}
}

func testRecords(t *testing.T, target uint64) []trace.Record {
	t.Helper()
	prog, err := workload.Generate(testProfile(21))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := GenerateRecords(prog, 1, target)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// soloFanOut builds a one-lane fan-out.
func soloFanOut(t testing.TB, cfg Config, kind PolicyKind, warmupLimit uint64) *FanOut {
	t.Helper()
	fo, err := NewFanOut(cfg, []PolicyKind{kind}, warmupLimit)
	if err != nil {
		t.Fatal(err)
	}
	return fo
}

// replayRecords replays a buffered record slice through a one-lane
// fan-out with the given warm-up limit and returns the lane's result.
func replayRecords(t testing.TB, cfg Config, kind PolicyKind, warmupLimit uint64, recs []trace.Record) Result {
	t.Helper()
	fo := soloFanOut(t, cfg, kind, warmupLimit)
	for _, r := range recs {
		fo.Process(r)
	}
	return fo.Results()[0]
}

// simulateRecords is the buffered reference path: it replays recs under
// one policy with the warm-up window derived from the records
// themselves.
func simulateRecords(t testing.TB, cfg Config, kind PolicyKind, recs []trace.Record) Result {
	t.Helper()
	total, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	return replayRecords(t, cfg, kind, cfg.WarmupFor(total), recs)
}

// smallConfig uses a small I-cache/BTB so the test workload generates
// real replacement pressure.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.ICache = ICacheConfig{SizeBytes: 8 * 1024, BlockBytes: 64, Ways: 4}
	cfg.BTB = BTBConfig{Entries: 256, Ways: 4}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ICache.SizeBytes = 0 },
		func(c *Config) { c.ICache.BlockBytes = 48 }, // 21 sets with 8 ways
		func(c *Config) { c.BTB.Entries = 0 },
		func(c *Config) { c.BTB.Ways = 3 }, // non-power-of-two sets
		func(c *Config) { c.InstrBytes = 3 },
		func(c *Config) { c.WarmupFraction = 1.5 },
		func(c *Config) { c.WrongPathDepth = -1 },
		func(c *Config) { c.SDBP.CounterMax = 256 }, // counters are one byte
		func(c *Config) { c.SDBP.DeadSum = -1 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated, want error", i)
		}
	}
}

func TestICacheConfigDerived(t *testing.T) {
	c := DefaultICache()
	if c.Sets() != 128 || c.Blocks() != 1024 {
		t.Errorf("64KB/8w/64B: sets=%d blocks=%d, want 128/1024", c.Sets(), c.Blocks())
	}
	if c.String() != "64KB/8-way/64B" {
		t.Errorf("String = %q", c.String())
	}
	b := DefaultBTB()
	if b.Sets() != 1024 {
		t.Errorf("BTB sets = %d, want 1024", b.Sets())
	}
	if b.String() != "4096-entry/4-way" {
		t.Errorf("String = %q", b.String())
	}
}

func TestParsePolicy(t *testing.T) {
	for _, k := range PaperPolicies() {
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePolicy(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParsePolicy("ghrp"); err != nil {
		t.Error("case-insensitive parse failed")
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	if len(PaperPolicies()) != 5 {
		t.Error("the paper evaluates five policies")
	}
}

func TestWarmupFor(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.WarmupFor(1000); got != 500 {
		t.Errorf("WarmupFor(1000) = %d, want 500", got)
	}
	cfg.WarmupCap = 100
	if got := cfg.WarmupFor(1000); got != 100 {
		t.Errorf("capped WarmupFor = %d, want 100", got)
	}
}

func TestEngineRunsAllPolicies(t *testing.T) {
	recs := testRecords(t, 60_000)
	for _, kind := range PaperPolicies() {
		res := simulateRecords(t, smallConfig(), kind, recs)
		if res.Policy != kind {
			t.Errorf("%v: result policy %v", kind, res.Policy)
		}
		if res.CountedInstrs == 0 || res.CountedInstrs >= res.TotalInstructions {
			t.Errorf("%v: counted %d of %d", kind, res.CountedInstrs, res.TotalInstructions)
		}
		if res.ICache.Accesses == 0 {
			t.Errorf("%v: no I-cache accesses", kind)
		}
		if res.BTB.Accesses == 0 {
			t.Errorf("%v: no BTB accesses", kind)
		}
		if mpki := res.ICacheMPKI(); mpki < 0 || mpki > 500 {
			t.Errorf("%v: absurd I-cache MPKI %v", kind, mpki)
		}
		if res.Branch.Predictions == 0 {
			t.Errorf("%v: direction predictor idle", kind)
		}
		if acc := res.Branch.Accuracy(); acc < 0.6 {
			t.Errorf("%v: branch accuracy %.2f too low", kind, acc)
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	recs := testRecords(t, 40_000)
	a := simulateRecords(t, smallConfig(), PolicyGHRP, recs)
	b := simulateRecords(t, smallConfig(), PolicyGHRP, recs)
	if a != b {
		t.Errorf("same input diverged:\n%+v\n%+v", a, b)
	}
}

func TestSimulateProgramMatchesRecords(t *testing.T) {
	prog, err := workload.Generate(testProfile(21))
	if err != nil {
		t.Fatal(err)
	}
	const target = 40_000
	cfg := smallConfig()
	streamed, err := SimulateProgramStream(cfg, PolicyLRU, prog, 1, target, cfg.WarmupFor(target), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := GenerateRecords(prog, 1, target)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up derivation differs (target vs reconstructed count), so
	// compare structure-level totals.
	replayed := simulateRecords(t, cfg, PolicyLRU, recs)
	if streamed.Records != replayed.Records {
		t.Errorf("record counts differ: %d vs %d", streamed.Records, replayed.Records)
	}
	if streamed.TotalInstructions != replayed.TotalInstructions {
		t.Errorf("instruction counts differ: %d vs %d", streamed.TotalInstructions, replayed.TotalInstructions)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	recs := testRecords(t, 40_000)
	cfg := smallConfig()
	warmed := simulateRecords(t, cfg, PolicyLRU, recs)
	cfg.WarmupFraction = 0
	cold := simulateRecords(t, cfg, PolicyLRU, recs)
	if warmed.CountedInstrs >= cold.CountedInstrs {
		t.Error("warm-up did not shrink the counted window")
	}
	if warmed.ICache.Accesses >= cold.ICache.Accesses {
		t.Error("warm-up did not exclude accesses")
	}
	// A cold start counts compulsory misses that warm-up hides.
	if cold.ICacheMPKI() < warmed.ICacheMPKI() {
		t.Logf("note: cold MPKI %.3f < warm MPKI %.3f (acceptable for looping workloads)",
			cold.ICacheMPKI(), warmed.ICacheMPKI())
	}
}

func TestGHRPHistoriesStaySyncedOnRightPath(t *testing.T) {
	recs := testRecords(t, 30_000)
	cfg := smallConfig()
	fo := soloFanOut(t, cfg, PolicyGHRP, 0)
	for _, r := range recs {
		fo.Process(r)
	}
	fo.Flush()
	h := fo.GHRP(0).History()
	if h.Current() != h.Retired() {
		t.Errorf("speculative %#x != retired %#x with no wrong-path mode", h.Current(), h.Retired())
	}
}

func TestWrongPathRecovery(t *testing.T) {
	recs := testRecords(t, 30_000)
	cfg := smallConfig()
	cfg.WrongPath = WrongPathInject
	fo := soloFanOut(t, cfg, PolicyGHRP, 0)
	for _, r := range recs {
		fo.Process(r)
		fo.Flush()
		h := fo.GHRP(0).History()
		if h.Current() != h.Retired() {
			t.Fatal("recovery mode left speculative history diverged after a record")
		}
	}
	if fo.Results()[0].Branch.Mispredictions == 0 {
		t.Skip("no mispredictions; wrong-path path not exercised")
	}
}

func TestWrongPathNoRecoverDiverges(t *testing.T) {
	recs := testRecords(t, 30_000)
	cfg := smallConfig()
	cfg.WrongPath = WrongPathNoRecover
	fo := soloFanOut(t, cfg, PolicyGHRP, 0)
	diverged := false
	for _, r := range recs {
		fo.Process(r)
		fo.Flush()
		h := fo.GHRP(0).History()
		if h.Current() != h.Retired() {
			diverged = true
			break
		}
	}
	if fo.Results()[0].Branch.Mispredictions == 0 {
		t.Skip("no mispredictions; cannot observe divergence")
	}
	if !diverged {
		t.Error("no-recover mode never diverged despite mispredictions")
	}
}

func TestCountInstructions(t *testing.T) {
	recs := testRecords(t, 20_000)
	n, err := CountInstructions(recs, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The executor's count and the fetch reconstruction differ slightly
	// (dispatcher overhead approximation), but must agree within 5%.
	if n < 19_000 || n > 21_000 {
		t.Errorf("counted %d instructions, want ~20000", n)
	}
	if _, err := CountInstructions(recs, 0, 64); err == nil {
		t.Error("zero instr size accepted")
	}
}

func TestCountInstructionsRejectsUnalignedPC(t *testing.T) {
	recs := append(testRecords(t, 2_000), trace.Record{PC: 0x1002, Target: 0x2000, Type: trace.UncondDirect, Taken: true})
	_, err := CountInstructions(recs, 4, 64)
	if err == nil {
		t.Fatal("unaligned PC accepted")
	}
	if want := fmt.Sprintf("record %d:", len(recs)-1); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the record (%q)", err, want)
	}
	if _, err := CountInstructions(recs[:len(recs)-1], 4, 64); err != nil {
		t.Errorf("aligned records rejected: %v", err)
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ICache.SizeBytes = -5
	if _, err := NewFanOut(cfg, []PolicyKind{PolicyLRU}, 0); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewFanOut(DefaultConfig(), []PolicyKind{numPolicies}, 0); err == nil {
		t.Error("invalid policy kind accepted")
	}
}

// TestGHRPBeatsLRUEndToEnd is the end-to-end shape check at simulator
// level: on a pressured I-cache, GHRP must produce fewer misses than
// LRU, and Random must produce more.
func TestGHRPBeatsLRUEndToEnd(t *testing.T) {
	recs := testRecords(t, 300_000)
	cfg := smallConfig()
	run := func(kind PolicyKind) Result { return simulateRecords(t, cfg, kind, recs) }
	lru := run(PolicyLRU)
	ghrp := run(PolicyGHRP)
	random := run(PolicyRandom)
	if lru.ICacheMPKI() <= 0.05 {
		t.Fatalf("workload generates no I-cache pressure (LRU MPKI %.3f)", lru.ICacheMPKI())
	}
	if ghrp.ICacheMPKI() >= lru.ICacheMPKI() {
		t.Errorf("GHRP MPKI %.3f >= LRU MPKI %.3f", ghrp.ICacheMPKI(), lru.ICacheMPKI())
	}
	if random.ICacheMPKI() <= lru.ICacheMPKI()*0.9 {
		t.Errorf("Random MPKI %.3f unexpectedly below LRU %.3f", random.ICacheMPKI(), lru.ICacheMPKI())
	}
}
