package dist

import (
	"strings"
	"testing"

	"ghrpsim/internal/workload"
)

// TestCoordinatorGenerativeSuiteBitIdentity runs a generated suite
// over real (in-process httptest) workers: shard requests carry only
// the grid parameters plus an index window, workers regenerate the
// specs locally, and the streamed merge must still be bit-identical
// to the single-process reference over the same generator.
func TestCoordinatorGenerativeSuiteBitIdentity(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
	opts.SuiteN = 0
	opts.Suite = &workload.SuiteGen{N: 10}
	opts.ShardSize = 3
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 {
		t.Fatalf("got %d shards over 10 workloads at size 3, want 4", c.Shards())
	}
	m := runAndVerify(t, c)

	if len(m.Workloads) != 10 {
		t.Fatalf("merged %d workloads, want 10", len(m.Workloads))
	}
	for i, name := range m.Workloads {
		if !strings.HasPrefix(name, "G") || !strings.HasSuffix(name, "-00000"+string(rune('0'+i))) {
			t.Errorf("workload %d named %q, want a generated G<cat>-%06d name", i, name, i)
		}
	}
	if m.Stats.LocalShards != 0 {
		t.Errorf("LocalShards = %d, want 0 (healthy roster)", m.Stats.LocalShards)
	}
}

// With a tight merge window the dispatch gate keeps the parked set
// bounded — the coordinator memory guarantee — and the run still
// completes bit-identically.
func TestCoordinatorMergeWindowBoundsParkedSet(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	for _, window := range []int{1, 2} {
		opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
		opts.SuiteN = 6
		opts.MergeWindow = window
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		m := runAndVerify(t, c)
		if m.Stats.MergeParkedPeak > window {
			t.Errorf("window %d: MergeParkedPeak = %d, want <= window", window, m.Stats.MergeParkedPeak)
		}
	}
}

// Affinity accounting: on a clean run every primary dispatch is
// classified as a hit or a miss, and at least one worker starts on a
// shard the ring assigned to it.
func TestCoordinatorAffinityStats(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)
	if got := m.Stats.AffinityHits + m.Stats.AffinityMisses; got != m.Stats.Dispatches {
		t.Errorf("AffinityHits+Misses = %d, want %d (every primary dispatch classified; no hedges ran)", got, m.Stats.Dispatches)
	}
	if m.Stats.AffinityHits == 0 {
		t.Error("AffinityHits = 0: no worker ever claimed a shard the ring assigned to it")
	}
}

func TestCoordinatorGenerativeRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Suite: &workload.SuiteGen{N: 4}, SuiteN: 2}); err == nil {
		t.Error("suite+suite_n accepted, want error")
	}
	if _, err := New(Options{Suite: &workload.SuiteGen{N: 4}, Workloads: []string{"SM-001"}}); err == nil {
		t.Error("suite+workloads accepted, want error")
	}
	if _, err := New(Options{Suite: &workload.SuiteGen{N: 0}}); err == nil {
		t.Error("empty generated suite accepted, want error")
	}
	if _, err := New(Options{Suite: &workload.SuiteGen{N: 2, FootprintMin: -4}}); err == nil {
		t.Error("negative footprint accepted, want error")
	}
}
