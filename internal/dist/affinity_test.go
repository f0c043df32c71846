package dist

import (
	"reflect"
	"testing"

	"ghrpsim/internal/serve"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/workload"
)

func allUsable(int) bool { return true }

func TestRingCoversAllWorkersRoughlyEvenly(t *testing.T) {
	names := []string{"w0", "w1", "w2", "w3"}
	r := newRing(names)
	owned := make([]int, len(names))
	key := uint64(0x1234_5678_9ABC_DEF0)
	const keys = 4096
	for i := 0; i < keys; i++ {
		key = sim.SplitMix64(key)
		wi := r.owner(key, allUsable)
		if wi < 0 || wi >= len(names) {
			t.Fatalf("owner(%#x) = %d, out of roster", key, wi)
		}
		owned[wi]++
	}
	for wi, n := range owned {
		// 64 virtual points per worker keeps ownership within a loose
		// band of the fair share (1024); far outside it means the hash
		// or the ring walk is broken.
		if n < keys/16 || n > keys/2 {
			t.Errorf("worker %d owns %d of %d keys, outside [%d, %d]", wi, n, keys, keys/16, keys/2)
		}
	}
}

// Quarantining one worker must move only the keys it owned; everything
// else keeps its owner (the consistent-hash property), and recovery
// restores the original placement exactly.
func TestRingStableUnderWorkerRemoval(t *testing.T) {
	r := newRing([]string{"w0", "w1", "w2", "w3"})
	const down = 2
	without := func(i int) bool { return i != down }

	key := uint64(0xBEEF)
	moved, kept := 0, 0
	for i := 0; i < 2048; i++ {
		key = sim.SplitMix64(key)
		before := r.owner(key, allUsable)
		after := r.owner(key, without)
		if before != down {
			if after != before {
				t.Fatalf("key %#x moved %d -> %d though its owner stayed healthy", key, before, after)
			}
			kept++
		} else {
			if after == down {
				t.Fatalf("key %#x still owned by the unusable worker", key)
			}
			moved++
		}
		if r.owner(key, allUsable) != before {
			t.Fatalf("key %#x placement changed after recovery", key)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate ring: moved=%d kept=%d", moved, kept)
	}
}

func TestRingNoUsableWorkers(t *testing.T) {
	r := newRing([]string{"w0", "w1"})
	if got := r.owner(7, func(int) bool { return false }); got != -1 {
		t.Errorf("owner with an all-down roster = %d, want -1", got)
	}
	if newRing(nil) != nil {
		t.Error("empty roster must yield a nil ring")
	}
}

func TestRingDeterministic(t *testing.T) {
	a := newRing([]string{"alpha", "beta"})
	b := newRing([]string{"alpha", "beta"})
	key := uint64(1)
	for i := 0; i < 512; i++ {
		key = sim.SplitMix64(key)
		if a.owner(key, allUsable) != b.owner(key, allUsable) {
			t.Fatalf("ring placement differs across identical rosters at key %#x", key)
		}
	}
}

// Shard affinity keys are the ring positions of the shards' run keys:
// stable within a plan, distinct across shards, and moved by experiment
// parameters that change worker cache keys.
func TestShardAffinityKeys(t *testing.T) {
	c1 := synthCoordinator(t, 12, 3)
	c2 := synthCoordinator(t, 12, 3)
	seen := map[uint64]bool{}
	for i, s := range c1.shards {
		if s.affinity != c2.shards[i].affinity {
			t.Errorf("shard %d affinity key differs across identical plans", i)
		}
		if seen[s.affinity] {
			t.Errorf("shard %d affinity key collides within the plan", i)
		}
		seen[s.affinity] = true
	}

	c3, err := New(Options{Suite: &workload.SuiteGen{N: 12}, Policies: []string{"LRU", "GHRP"}, ShardSize: 3, ExecSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if c1.shards[0].affinity == c3.shards[0].affinity {
		t.Error("changing the exec seed did not move the affinity key")
	}
}

// TestShardRequestsAreFixedPoints pins the worker protocol (docs/API.md):
// a shard request, normalized as a worker normalizes it, comes back
// unchanged on every identity field, runs the same specs as the
// coordinator's in-process fallback, and gets the run key whose ring
// position is the shard's affinity key.
func TestShardRequestsAreFixedPoints(t *testing.T) {
	for name, opts := range map[string]Options{
		"named": {Workloads: []string{"LS-145", "SM-001", "SS-070", "SM-002"}, Policies: []string{"GHRP", "LRU"},
			Scale: 0.01, ExecSeed: 5, KeepGoing: true, Config: &serve.ConfigDoc{ICacheKB: 32, Ways: 4}},
		"subsample": {SuiteN: 7, ProgressEvery: 64},
		"generated": {Suite: &workload.SuiteGen{N: 10, FootprintSteps: 3}, Policies: []string{"SRRIP"}, Parallelism: 3},
	} {
		t.Run(name, func(t *testing.T) {
			opts.ShardSize = 3
			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range c.shards {
				req := s.job.Request
				j, err := serve.Normalize(req, serve.Defaults{JobParallelism: 2})
				if err != nil {
					t.Fatalf("shard %d: worker rejects its request: %v", s.idx, err)
				}
				got := j.Request
				// Pacing knobs are outside the identity; a worker may fill
				// in its own parallelism.
				got.Parallelism, got.ProgressEvery = req.Parallelism, req.ProgressEvery
				if !reflect.DeepEqual(got, req) {
					t.Errorf("shard %d: worker normalizes\n%+v\nto\n%+v", s.idx, req, got)
				}
				if j.Key != s.job.Key || ringKey(j.Key) != s.affinity {
					t.Errorf("shard %d: worker key %s, shard key %s, affinity %#x", s.idx, j.Key, s.job.Key, s.affinity)
				}
				if !reflect.DeepEqual(workload.Materialize(j.Options.Source), workload.Materialize(s.job.Options.Source)) {
					t.Errorf("shard %d: worker and in-process fallback run different specs", s.idx)
				}
			}
		})
	}
}
