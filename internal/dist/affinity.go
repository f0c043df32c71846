package dist

import (
	"sort"
	"strconv"

	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/sim"
)

// Cache-affinity shard placement. Workers run with per-worker result
// caches (-cache-dir), so a shard re-simulated on the worker that ran
// it before — this run after a retry, or a warm rerun of the same
// suite — answers from disk instead of replaying. The coordinator
// therefore places each shard on a consistent-hash ring over the roster
// by its run key — the content hash a worker gives the shard request,
// over the inputs that determine the workers' resultcache cell keys
// (workloads or generator grid plus window, policies, scale, seed,
// config) — and each worker prefers the pending shards the ring assigns
// to it. One key per shard rather than one per (workload, policy) cell:
// cells of a shard always travel together, so the shard's key places
// every one of its cells at once at 1/N·cells the hashing cost.
//
// Affinity is a preference, never a constraint: an idle worker with no
// affine shard steals the oldest eligible one (no starvation), hedging
// picks any idle worker by design, and quarantine removes a worker
// from ownership until it is reinstated — the ring walks past unusable
// workers, so failure handling always overrides placement. Stats
// report hits (dispatches to the ring-preferred worker) and misses, so
// the warm-cache win stays measurable.

// ringReplicas is the number of virtual points per worker; enough to
// spread ownership within a few percent across small rosters.
const ringReplicas = 64

// ring is a consistent-hash ring over the roster. Points are fixed at
// construction; health is evaluated at lookup time so quarantine and
// reinstatement shift ownership without re-ringing (and shards return
// to their original owner when it comes back).
type ring struct {
	hashes  []uint64
	workers []int // worker index per hash, aligned with hashes
}

// newRing builds the ring from the roster's worker names.
func newRing(names []string) *ring {
	if len(names) == 0 {
		return nil
	}
	r := &ring{}
	for wi, name := range names {
		base := fnv64(name)
		for rep := 0; rep < ringReplicas; rep++ {
			r.hashes = append(r.hashes, sim.SplitMix64(base^sim.SplitMix64(uint64(rep+1))))
			r.workers = append(r.workers, wi)
		}
	}
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if r.hashes[idx[a]] != r.hashes[idx[b]] {
			return r.hashes[idx[a]] < r.hashes[idx[b]]
		}
		return r.workers[idx[a]] < r.workers[idx[b]]
	})
	hashes := make([]uint64, len(idx))
	workers := make([]int, len(idx))
	for i, j := range idx {
		hashes[i], workers[i] = r.hashes[j], r.workers[j]
	}
	r.hashes, r.workers = hashes, workers
	return r
}

// owner returns the index of the first usable worker clockwise from
// key, or -1 when none is usable. Removing one worker reassigns only
// the shards it owned; every other shard keeps its owner.
func (r *ring) owner(key uint64, usable func(int) bool) int {
	n := len(r.hashes)
	if n == 0 {
		return -1
	}
	start := sort.Search(n, func(i int) bool { return r.hashes[i] >= key })
	for off := 0; off < n; off++ {
		wi := r.workers[(start+off)%n]
		if usable(wi) {
			return wi
		}
	}
	return -1
}

// fnv64 is the FNV-1a hash of s (stdlib hash/fnv, inlined to stay
// allocation-free on the dispatch path).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// ringKey places a shard on the ring by its run key: the key a worker
// gives the shard's request, which covers exactly the inputs of the
// worker's resultcache cell keys, so equal shards (same suite
// partition, same experiment) hash to the same owner across runs and
// reruns. The key is a hex SHA-256; its first 16 digits are an unbiased
// 64-bit ring position, and always parse.
func ringKey(key resultcache.Key) uint64 {
	pos, _ := strconv.ParseUint(string(key)[:16], 16, 64)
	return pos
}
