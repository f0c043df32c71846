package frontend

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// allPolicies lists every implemented policy kind, ablations included.
func allPolicies() []PolicyKind {
	kinds := make([]PolicyKind, 0, numPolicies)
	for k := PolicyKind(0); k < numPolicies; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

func fanOutProgram(t *testing.T) *workload.Program {
	t.Helper()
	prog, err := workload.Generate(testProfile(21))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFanOutMatchesPerPolicy is the fused path's bit-identity contract:
// for every policy, wrong-path mode, and prefetch setting, one fused
// replay must produce exactly the Result that a standalone per-policy
// replay of the same stream produces.
func TestFanOutMatchesPerPolicy(t *testing.T) {
	prog := fanOutProgram(t)
	const target = 150_000
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"inject", func(c *Config) { c.WrongPath = WrongPathInject }},
		{"norecover", func(c *Config) { c.WrongPath = WrongPathNoRecover }},
		{"off", func(c *Config) { c.WrongPath = WrongPathOff }},
		{"prefetch", func(c *Config) { c.NextLinePrefetch = true }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallConfig()
			v.mutate(&cfg)
			total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			warm := cfg.WarmupFor(total)
			kinds := allPolicies()
			fused, err := SimulateFanOut(cfg, kinds, prog, 1, target, warm, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(fused) != len(kinds) {
				t.Fatalf("fused results: got %d, want %d", len(fused), len(kinds))
			}
			for i, kind := range kinds {
				solo, err := SimulateProgramStream(cfg, kind, prog, 1, target, warm, StreamOptions{})
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if fused[i] != solo {
					t.Errorf("%v: fused result diverges from per-policy replay:\n fused: %+v\n  solo: %+v",
						kind, fused[i], solo)
				}
			}
		})
	}
}

// TestFanOutWarmupOutlastsRecords pins Results when the warm-up limit is
// above the stream's total: nothing counts, and the tap's whole log is
// warm-up.
func TestFanOutWarmupOutlastsRecords(t *testing.T) {
	recs := testRecords(t, 20_000)
	cfg := smallConfig()
	cfg.WrongPath = WrongPathInject
	cfg.NextLinePrefetch = true
	fo, err := NewFanOut(cfg, []PolicyKind{PolicyLRU, PolicyGHRP}, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	var log AccessLog
	fo.TapAccesses(&log)
	for _, r := range recs {
		fo.Process(r)
	}
	for i, r := range fo.Results() {
		want := Result{Policy: r.Policy, TotalInstructions: fo.Instructions(), Records: uint64(len(recs))}
		if r != want || r.TotalInstructions == 0 {
			t.Errorf("lane %d: got %+v, want only %+v", i, r, want)
		}
	}
	if len(log.Blocks) == 0 || log.Skip != len(log.Blocks) {
		t.Errorf("tap skips %d of %d accesses, want all", log.Skip, len(log.Blocks))
	}
}

// TestFanOutDuplicateKinds checks that duplicate lanes are independent
// and identical: two GHRP lanes in one fan-out must match each other and
// a one-lane fan-out.
func TestFanOutDuplicateKinds(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := smallConfig()
	const target = 80_000
	total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg.WarmupFor(total)
	fused, err := SimulateFanOut(cfg, []PolicyKind{PolicyGHRP, PolicyLRU, PolicyGHRP}, prog, 1, target, warm, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fused[0] != fused[2] {
		t.Errorf("duplicate GHRP lanes diverge:\n lane0: %+v\n lane2: %+v", fused[0], fused[2])
	}
	solo, err := SimulateProgramStream(cfg, PolicyGHRP, prog, 1, target, warm, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fused[0] != solo {
		t.Errorf("fused GHRP diverges from a one-lane fan-out:\n fused: %+v\n  solo: %+v", fused[0], solo)
	}
}

// TestFanOutRejectsBadInputs covers the constructor's error paths.
func TestFanOutRejectsBadInputs(t *testing.T) {
	cfg := smallConfig()
	if _, err := NewFanOut(cfg, nil, 0); err == nil {
		t.Error("empty kinds accepted")
	}
	if _, err := NewFanOut(cfg, []PolicyKind{numPolicies}, 0); err == nil {
		t.Error("invalid kind accepted")
	}
	bad := cfg
	bad.ICache.SizeBytes = 0
	if _, err := NewFanOut(bad, []PolicyKind{PolicyLRU}, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestFanOutChunkBoundaries pins that where a record stream is cut into
// decision chunks cannot change a result: Process with a Flush after
// every record, after every k records or only at the end, and
// StreamProgram, all give identical Results.
// The warm-up limit makes the warm-up mark land on the last record of
// the first chunk, so the mark is replayed at a chunk's edge. Records Process
// queued before a stream are replayed ahead of it.
func TestFanOutChunkBoundaries(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := smallConfig()
	cfg.WrongPath = WrongPathInject
	const target = 400_000
	recs, err := GenerateRecords(prog, 1, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2*chunkRecords {
		t.Fatalf("%d records; need at least two chunks", len(recs))
	}
	warm, err := CountInstructions(recs[:chunkRecords], cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	kinds := []PolicyKind{PolicyLRU, PolicySDBP, PolicyGHRP}
	newFanOut := func() *FanOut {
		fo, err := NewFanOut(cfg, kinds, warm)
		if err != nil {
			t.Fatal(err)
		}
		return fo
	}
	fo := newFanOut()
	for i, r := range recs[:chunkRecords] {
		fo.Process(r)
		if marked := len(fo.front.marks) == 2; marked != (i == chunkRecords-1) {
			t.Fatalf("warm-up mark is not on record %d", chunkRecords-1)
		}
	}

	process := func(recs []trace.Record, flushEvery int) []Result {
		fo := newFanOut()
		for i, r := range recs {
			fo.Process(r)
			if flushEvery > 0 && (i+1)%flushEvery == 0 {
				fo.Flush()
			}
		}
		return fo.Results()
	}
	check := func(name string, got, want []Result) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: lane %d (%v) diverges from a flush at the end:\n got: %+v\nwant: %+v", name, i, kinds[i], got[i], want[i])
			}
		}
	}
	want := process(recs, 0)
	for _, k := range []int{1, 3, 1000, chunkRecords - 1, chunkRecords, chunkRecords + 1} {
		check(fmt.Sprintf("flush every %d", k), process(recs, k), want)
	}
	got, err := newFanOut().StreamProgram(prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("StreamProgram", got, want)

	prefix := recs[:chunkRecords/2]
	wantPrefixed := process(append(slices.Clip(prefix), recs...), 0)
	fo = newFanOut()
	for _, r := range prefix {
		fo.Process(r)
	}
	got, err = fo.StreamProgram(prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check("queued records, then StreamProgram", got, wantPrefixed)
}

// TestFanOutEfficiencyMatchesSolo pins efficiency tracking under
// fusion: every lane of a PaperPolicies fan-out reports the I-cache and
// BTB efficiency matrices a one-lane fan-out of its kind reports, on a
// first stream and, after a Reset, on a second stream of another
// program.
func TestFanOutEfficiencyMatchesSolo(t *testing.T) {
	second, err := workload.Generate(testProfile(33))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	kinds := PaperPolicies()
	var fused *FanOut
	for round, prog := range []*workload.Program{fanOutProgram(t), second} {
		const target = 60_000
		total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		warm := cfg.WarmupFor(total)
		if fused == nil {
			if fused, err = NewFanOut(cfg, kinds, warm); err != nil {
				t.Fatal(err)
			}
			fused.TrackEfficiency()
		} else {
			fused.Reset(warm)
		}
		if _, err := fused.StreamProgram(prog, 1, target, StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		for i, kind := range kinds {
			solo := soloFanOut(t, cfg, kind, warm)
			solo.TrackEfficiency()
			if _, err := solo.StreamProgram(prog, 1, target, StreamOptions{}); err != nil {
				t.Fatal(err)
			}
			if solo.ICache(0).MeanEfficiency() == 0 {
				t.Fatalf("round %d %v: zero I-cache efficiency; tracking is off", round, kind)
			}
			if !reflect.DeepEqual(fused.ICache(i).Efficiency(), solo.ICache(0).Efficiency()) {
				t.Errorf("round %d %v: fused I-cache efficiency differs from a one-lane fan-out's", round, kind)
			}
			if !reflect.DeepEqual(fused.BTB(i).Efficiency(), solo.BTB(0).Efficiency()) {
				t.Errorf("round %d %v: fused BTB efficiency differs from a one-lane fan-out's", round, kind)
			}
		}
	}
}

// mixedCells returns lanes that share a front but differ in every field
// a lane reads: cache and BTB geometry, SDBP's sampler, GHRP's tables and
// bypass, prefetching, the Random seed, and wrong-path fetch — off, with
// and without recovery, and at another depth.
func mixedCells() []Cell {
	base := smallConfig()
	with := func(kind PolicyKind, mutate func(*Config)) Cell {
		c := Cell{Kind: kind, Config: base}
		mutate(&c.Config)
		return c
	}
	return []Cell{
		{Kind: PolicyLRU, Config: base},
		{Kind: PolicyGHRP, Config: base},
		with(PolicyLRU, func(c *Config) { c.ICache = ICacheConfig{SizeBytes: 16 * 1024, BlockBytes: 64, Ways: 8} }),
		with(PolicyGHRP, func(c *Config) { c.ICache = ICacheConfig{SizeBytes: 4 * 1024, BlockBytes: 64, Ways: 2} }),
		with(PolicySRRIP, func(c *Config) { c.BTB = BTBConfig{Entries: 512, Ways: 8} }),
		with(PolicySDBP, func(c *Config) { c.SDBP.SamplerSets = 2 }),
		with(PolicyGHRP, func(c *Config) { c.GHRP.NumTables = 1; c.GHRP.DisableBypass = true }),
		with(PolicyGHRP, func(c *Config) { c.NextLinePrefetch = true }),
		with(PolicyRandom, func(c *Config) { c.RandomSeed = 7 }),
		with(PolicyGHRP, func(c *Config) { c.WrongPath = WrongPathInject }),
		with(PolicyGHRP, func(c *Config) { c.WrongPath = WrongPathNoRecover }),
		with(PolicyLRU, func(c *Config) { c.WrongPath, c.WrongPathDepth = WrongPathInject, 4 }),
	}
}

// TestCellFanOutMatchesOneConfig is the mixed-configuration fan-out's
// bit-identity contract: each lane of one fan-out over cells of
// different configurations, wrong-path fetch off beside it on, must
// produce exactly the Result of a one-config, one-lane fan-out of its
// cell.
func TestCellFanOutMatchesOneConfig(t *testing.T) {
	prog := fanOutProgram(t)
	const target = 120_000
	cells := mixedCells()
	fo, err := NewCellFanOut(cells, WarmupFromStream)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := fo.StreamProgram(prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		solo, err := SimulateFanOut(c.Config, []PolicyKind{c.Kind}, prog, 1, target, WarmupFromStream, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fused[i] != solo[0] {
			t.Errorf("lane %d (%v, wrong path %d): mixed fan-out diverges from its one-config fan-out:\n fused: %+v\n  solo: %+v",
				i, c.Kind, c.Config.WrongPath, fused[i], solo[0])
		}
	}
}

// TestCellFanOutRejectsFrontMismatch pins that a fan-out refuses lanes
// that would need different fronts: a mismatch in any field the front
// reads is an error, while the lane-only fields of mixedCells, wrong-path
// fetch among them, are not.
func TestCellFanOutRejectsFrontMismatch(t *testing.T) {
	for _, f := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"InstrBytes", func(c *Config) { c.InstrBytes = 8 }},
		{"ICache.BlockBytes", func(c *Config) { c.ICache.BlockBytes = 32 }},
		{"Branch.TableBits", func(c *Config) { c.Branch.TableBits = 10 }},
		{"Branch.HistoryLengths", func(c *Config) { c.Branch.HistoryLengths = []int{0, 4, 8} }},
		{"Branch.WeightMax", func(c *Config) { c.Branch.WeightMax = 63 }},
		{"Branch.ThetaOverride", func(c *Config) { c.Branch.ThetaOverride = 40 }},
		{"WarmupFraction", func(c *Config) { c.WarmupFraction = 0.25 }},
		{"WarmupCap", func(c *Config) { c.WarmupCap = 1000 }},
	} {
		other := Cell{Kind: PolicyGHRP, Config: smallConfig()}
		f.mutate(&other.Config)
		if SameFront(smallConfig(), other.Config) {
			t.Errorf("%s: SameFront ignores the field", f.name)
		}
		if _, err := NewCellFanOut([]Cell{{Kind: PolicyLRU, Config: smallConfig()}, other}, WarmupFromStream); err == nil {
			t.Errorf("%s: lanes that need different fronts accepted", f.name)
		}
	}
	if _, err := NewCellFanOut(mixedCells(), WarmupFromStream); err != nil {
		t.Errorf("lanes sharing a front rejected: %v", err)
	}
}
