package frontend

import (
	"math/rand"
	"testing"

	"ghrpsim/internal/workload"
)

// mapPrefetchSet is the exact map-based pending set the engine used
// before the direct-mapped filter, kept as a test oracle: unbounded
// membership with the old periodic clear.
type mapPrefetchSet struct {
	m map[uint64]struct{}
}

func newMapPrefetchSet() *mapPrefetchSet {
	return &mapPrefetchSet{m: make(map[uint64]struct{}, 1024)}
}

func (p *mapPrefetchSet) add(block uint64) {
	if len(p.m) > 1<<16 {
		clear(p.m)
	}
	p.m[block] = struct{}{}
}

func (p *mapPrefetchSet) reset() { clear(p.m) }

func (p *mapPrefetchSet) take(block uint64) bool {
	if _, ok := p.m[block]; ok {
		delete(p.m, block)
		return true
	}
	return false
}

// TestPrefetchFilterBasics exercises the direct-mapped filter directly:
// add/take round trips, emptiness, and conflict overwrite.
func TestPrefetchFilterBasics(t *testing.T) {
	f := newPrefetchFilter()
	if f.take(7) {
		t.Fatal("take on empty filter reported a hit")
	}
	f.add(7)
	if !f.take(7) {
		t.Fatal("added block not found")
	}
	if f.take(7) {
		t.Fatal("take did not remove the block")
	}
	// Conflicting blocks map to the same slot; the newer one wins.
	f.add(3)
	f.add(3 + prefetchFilterSlots)
	if f.take(3) {
		t.Fatal("evicted block still reported present")
	}
	if !f.take(3 + prefetchFilterSlots) {
		t.Fatal("conflicting add lost the newer block")
	}
	// Block 0 must be representable despite 0 marking an empty slot.
	f.add(0)
	if !f.take(0) {
		t.Fatal("block 0 not representable")
	}
}

// TestPrefetchStatsUnchangedOnSuite pins the direct-mapped filter to the
// old map semantics on the seed suite: with next-line prefetching on,
// every workload must produce a bit-identical Result (PrefetchStats
// included) whether the pending set is the filter or the map oracle.
// Simulation state never depends on the pending set, so any divergence
// would be confined to PrefetchStats.Useful — this test shows there is
// none at the filter's size on real access patterns.
func TestPrefetchStatsUnchangedOnSuite(t *testing.T) {
	cfg := smallConfig()
	cfg.NextLinePrefetch = true
	const target = 200_000
	for _, spec := range workload.SuiteN(4) {
		prog, err := spec.Generate()
		if err != nil {
			t.Fatalf("%s: generate: %v", spec.Name, err)
		}
		total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
		if err != nil {
			t.Fatalf("%s: count: %v", spec.Name, err)
		}
		run := func(oracle bool) Result {
			fo, err := NewFanOut(cfg, []PolicyKind{PolicyLRU}, cfg.WarmupFor(total))
			if err != nil {
				t.Fatalf("%s: fan-out: %v", spec.Name, err)
			}
			if oracle {
				fo.lanes[0].pref = newMapPrefetchSet()
			}
			res, err := fo.StreamProgram(prog, 1, target, StreamOptions{})
			if err != nil {
				t.Fatalf("%s: stream: %v", spec.Name, err)
			}
			return res[0]
		}
		filter, oracle := run(false), run(true)
		if filter != oracle {
			t.Errorf("%s: filter result diverges from map oracle:\n filter: %+v\n oracle: %+v",
				spec.Name, filter, oracle)
		}
		if filter.Prefetch.Issued == 0 {
			t.Errorf("%s: prefetcher never issued; test exercises nothing", spec.Name)
		}
	}
}

// benchPrefetchBlocks is a shared stream of block numbers with the
// locality shape the prefetcher sees: mostly sequential runs with
// occasional jumps.
func benchPrefetchBlocks(n int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	blocks := make([]uint64, n)
	b := uint64(0)
	for i := range blocks {
		if rng.Intn(16) == 0 {
			b = uint64(rng.Intn(1 << 14))
		} else {
			b++
		}
		blocks[i] = b
	}
	return blocks
}

func benchmarkPrefetchSet(b *testing.B, s prefetchSet) {
	blocks := benchPrefetchBlocks(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i&(len(blocks)-1)]
		if !s.take(blk) {
			s.add(blk + 1)
		}
	}
}

func BenchmarkPrefetchFilter(b *testing.B) { benchmarkPrefetchSet(b, newPrefetchFilter()) }
func BenchmarkPrefetchMap(b *testing.B)    { benchmarkPrefetchSet(b, newMapPrefetchSet()) }
