package frontend

import (
	"runtime"
	"testing"

	"ghrpsim/internal/trace"
)

// allocTestConfig turns on the allocation-heaviest features: next-line
// prefetching (per-access filter traffic) and wrong-path injection
// (scratch block lists per mispredicted branch).
func allocTestConfig() Config {
	cfg := smallConfig()
	cfg.NextLinePrefetch = true
	return cfg
}

// allocTestRecords buffers one workload's record stream for replay.
func allocTestRecords(t *testing.T) []trace.Record {
	t.Helper()
	prog := fanOutProgram(t)
	recs, err := GenerateRecords(prog, 1, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// steadyStateAllocs primes process over the first half of the stream —
// past the warm-up flip and every scratch-slice growth — then measures
// heap allocations per record over the second half.
func steadyStateAllocs(t *testing.T, recs []trace.Record, process func(trace.Record)) float64 {
	t.Helper()
	half := len(recs) / 2
	for _, r := range recs[:half] {
		process(r)
	}
	i := half
	return testing.AllocsPerRun(2000, func() {
		process(recs[i])
		i++
		if i == len(recs) {
			i = half
		}
	})
}

// The hot replay loop must not allocate: after warm-up, Process is
// zero-alloc per record for a one-lane fan-out. This pins the perf work
// the fused replay depends on — the direct-mapped prefetch filter (no
// map inserts) and the span-based fetch walk (no per-record closures).
func TestEngineProcessZeroAllocs(t *testing.T) {
	recs := allocTestRecords(t)
	for _, kind := range []PolicyKind{PolicyLRU, PolicyGHRP} {
		fo := soloFanOut(t, allocTestConfig(), kind, 10_000)
		if avg := steadyStateAllocs(t, recs, func(r trace.Record) { fo.Process(r) }); avg != 0 {
			t.Errorf("%v: Process allocates %.3f objects/record in steady state, want 0", kind, avg)
		}
	}
}

// The fused fan-out step must stay zero-alloc too: driving N lanes off
// one record is the whole point of the single-pass replay, and a
// per-lane allocation would scale with the policy roster.
func TestFanOutProcessZeroAllocs(t *testing.T) {
	recs := allocTestRecords(t)
	fo, err := NewFanOut(allocTestConfig(), []PolicyKind{PolicyLRU, PolicySRRIP, PolicyGHRP}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if avg := steadyStateAllocs(t, recs, func(r trace.Record) { fo.Process(r) }); avg != 0 {
		t.Errorf("fan-out Process allocates %.3f objects/record in steady state, want 0", avg)
	}
}

// The streaming path (program executor included) must allocate O(1) per
// replay, not O(records): doubling the instruction target must add
// almost no allocations beyond the shared setup.
func TestStreamingAllocsBounded(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := allocTestConfig()
	run := func(target uint64) (allocs uint64, records uint64) {
		fo := soloFanOut(t, cfg, PolicyGHRP, 10_000)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := fo.StreamProgram(prog, 1, target, StreamOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res[0].Records
	}
	a1, r1 := run(100_000)
	a2, r2 := run(200_000)
	if r2 <= r1 {
		t.Fatalf("targets produced %d and %d records; need growth to measure", r1, r2)
	}
	// Signed: Mallocs is process-wide, so a few stray runtime allocations
	// can land in either run, and the longer run may count fewer.
	extra := int64(a2) - int64(a1)
	perRecord := float64(extra) / float64(r2-r1)
	if perRecord > 0.01 {
		t.Errorf("streaming replay allocates %.4f objects/record (%d allocs over %d extra records), want ~0",
			perRecord, extra, r2-r1)
	}
}
