package dist

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"ghrpsim/internal/serve"
)

// Stats counts the transport and roster machinery a run exercised.
// None of it is part of the result identity: two runs with wildly
// different failure histories still merge to identical documents.
type Stats struct {
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	// Dispatches counts shard dispatches to workers (hedges included);
	// ShardFailures the dispatch attempts that failed; Hedges the
	// speculative re-dispatches; LocalShards the shards the in-process
	// fallback lane ran.
	Dispatches    int `json:"dispatches"`
	ShardFailures int `json:"shard_failures,omitempty"`
	Hedges        int `json:"hedges,omitempty"`
	LocalShards   int `json:"local_shards,omitempty"`
	// Retries counts transient HTTP attempt failures retried by the
	// worker clients (stream reconnects included).
	Retries int `json:"retries,omitempty"`
	// Quarantines and Reinstates count worker roster transitions.
	Quarantines int `json:"quarantines,omitempty"`
	Reinstates  int `json:"reinstates,omitempty"`
	// AffinityHits counts primary (non-hedge) dispatches that landed on
	// the shard's ring-preferred worker; AffinityMisses the ones that
	// stole a shard owned elsewhere. Hedges and local shards count as
	// neither — they override placement by design.
	AffinityHits   int `json:"affinity_hits,omitempty"`
	AffinityMisses int `json:"affinity_misses,omitempty"`
	// WorkerCacheHits sums the workers' result-cache hits across shard
	// documents: the cells answered from a worker's disk cache instead
	// of being simulated — the quantity affinity placement maximizes.
	WorkerCacheHits int `json:"worker_cache_hits,omitempty"`
	// MergeParkedPeak is the most shard documents the streaming merger
	// ever held parked at once, waiting for the frontier; bounded by
	// Options.MergeWindow.
	MergeParkedPeak int `json:"merge_parked_peak"`
	// WallMS is the coordinator's wall time for the whole run.
	WallMS float64 `json:"wall_ms"`
}

// Merged is a distributed run's combined result: the per-policy MPKI
// vectors over the suite-global workload order — the exact vectors a
// single-process run produces — plus the coordinator's stats.
type Merged struct {
	Workloads  []string             `json:"workloads"`
	Policies   []string             `json:"policies"`
	ICacheMPKI map[string][]float64 `json:"icache_mpki"`
	BTBMPKI    map[string][]float64 `json:"btb_mpki"`
	BranchMPKI []float64            `json:"branch_mpki"`
	// Failed lists keep-going annotations in workload order.
	Failed []serve.RunErrorDoc `json:"failed,omitempty"`
	// Stats is excluded from IdentityJSON: timings and failure
	// histories differ run to run, results must not.
	Stats Stats `json:"stats"`
}

// mergedIdentity is Merged minus everything allowed to vary between a
// distributed and a single-process execution of the same suite.
type mergedIdentity struct {
	Workloads  []string             `json:"workloads"`
	Policies   []string             `json:"policies"`
	ICacheMPKI map[string][]float64 `json:"icache_mpki"`
	BTBMPKI    map[string][]float64 `json:"btb_mpki"`
	BranchMPKI []float64            `json:"branch_mpki"`
	Failed     []serve.RunErrorDoc  `json:"failed,omitempty"`
}

// IdentityJSON renders the deterministic portion of the merged result.
// Two runs of the same suite — any sharding, any roster, any failure
// history, distributed or not — must produce identical bytes; the
// fault tests assert exactly that.
func (m *Merged) IdentityJSON() ([]byte, error) {
	return json.MarshalIndent(mergedIdentity{
		Workloads:  m.Workloads,
		Policies:   m.Policies,
		ICacheMPKI: m.ICacheMPKI,
		BTBMPKI:    m.BTBMPKI,
		BranchMPKI: m.BranchMPKI,
		Failed:     m.Failed,
	}, "", "\t")
}

// merger folds shard documents into the suite-global result as they
// complete, instead of buffering every document until the run ends.
// Shards complete in arbitrary order (hedging, retries, the local
// lane), so the merger keeps an emission frontier — shards [0,
// frontier) are folded — and parks out-of-order arrivals until the
// frontier reaches them. Dispatch is gated so no shard more than
// MergeWindow past the frontier is ever in flight, which bounds the
// parked set: coordinator memory is O(window × shard size), not
// O(suite), however large the generated suite grows.
//
// The in-order fold visits documents in ascending shard order and
// shards are contiguous ascending ranges, so the fold equals a buffered
// fold of every document at once: the property tests replay ragged
// completion orders against such an oracle. Coordinator.Reference
// folds its single full-suite document through the same merger, so
// every merged result comes from this one implementation.
type merger struct {
	names    []string
	policies []string

	mu  sync.Mutex
	out *Merged
	// frontier is the next shard index to fold; everything below it is
	// folded (or tombstoned by a permanent failure).
	frontier int
	parked   map[int]parkedDoc
	tomb     map[int]bool
	// failedAt aligns out.Failed with global workload indices for the
	// final ordering pass.
	failedAt   []int
	parkedPeak int
	cacheHits  int
	err        error
}

// parkedDoc is one completed shard waiting for the frontier.
type parkedDoc struct {
	s   *shard
	doc *serve.ResultDoc
}

func newMerger(names, policies []string) *merger {
	m := &merger{
		names:    names,
		policies: policies,
		parked:   map[int]parkedDoc{},
		tomb:     map[int]bool{},
		out: &Merged{
			Workloads:  names,
			Policies:   policies,
			ICacheMPKI: make(map[string][]float64, len(policies)),
			BTBMPKI:    make(map[string][]float64, len(policies)),
			BranchMPKI: make([]float64, len(names)),
		},
	}
	for _, p := range policies {
		m.out.ICacheMPKI[p] = make([]float64, len(names))
		m.out.BTBMPKI[p] = make([]float64, len(names))
	}
	return m
}

// Frontier returns the dispatch gate's lower bound: shards with idx <
// Frontier()+window may run.
func (m *merger) Frontier() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frontier
}

// complete hands the merger one shard's result document. In-frontier
// documents fold immediately (draining any parked successors);
// out-of-order ones park. Idempotent per shard index. A malformed
// document surfaces as an error (and poisons the merger) but still
// advances the frontier so dispatch gating never deadlocks on it.
func (m *merger) complete(s *shard, doc *serve.ResultDoc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.idx < m.frontier || m.tomb[s.idx] {
		return nil
	}
	if _, dup := m.parked[s.idx]; dup {
		return nil
	}
	m.parked[s.idx] = parkedDoc{s: s, doc: doc}
	if len(m.parked) > m.parkedPeak {
		m.parkedPeak = len(m.parked)
	}
	m.drainLocked()
	return m.err
}

// fail tombstones a permanently-failed shard so the frontier passes
// it; without this a failed frontier shard would gate out every shard
// beyond the window and the run could never drain.
func (m *merger) fail(idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx < m.frontier {
		return
	}
	m.tomb[idx] = true
	delete(m.parked, idx)
	m.drainLocked()
}

// drainLocked advances the frontier over every consecutively-available
// shard, folding parked documents and skipping tombstones.
func (m *merger) drainLocked() {
	for {
		if m.tomb[m.frontier] {
			delete(m.tomb, m.frontier)
			m.frontier++
			continue
		}
		p, ok := m.parked[m.frontier]
		if !ok {
			return
		}
		delete(m.parked, m.frontier)
		if err := m.foldLocked(p.s, p.doc); err != nil && m.err == nil {
			m.err = err
		}
		m.frontier++
	}
}

// foldLocked accumulates one document into the suite-global vectors.
// Workloads are matched positionally — document slot j is global index
// s.lo+j — and every name is verified against the suite, which needs
// no O(suite) index map.
func (m *merger) foldLocked(s *shard, doc *serve.ResultDoc) error {
	n := s.hi - s.lo
	if doc == nil {
		return fmt.Errorf("dist: merge: shard %d document is missing", s.idx)
	}
	if len(doc.Policies) != len(m.policies) {
		return fmt.Errorf("dist: merge: shard %d has %d policies, want %d", s.idx, len(doc.Policies), len(m.policies))
	}
	for i, p := range doc.Policies {
		if p != m.policies[i] {
			return fmt.Errorf("dist: merge: shard %d policy %d is %q, want %q", s.idx, i, p, m.policies[i])
		}
	}
	if len(doc.Workloads) != n {
		return fmt.Errorf("dist: merge: shard %d covers %d workloads, want %d", s.idx, len(doc.Workloads), n)
	}
	if len(doc.BranchMPKI) != n {
		return fmt.Errorf("dist: merge: shard %d has %d branch values over %d workloads", s.idx, len(doc.BranchMPKI), n)
	}
	for j, name := range doc.Workloads {
		gi := s.lo + j
		if name != m.names[gi] {
			return fmt.Errorf("dist: merge: shard %d slot %d is workload %q, want %q", s.idx, j, name, m.names[gi])
		}
		m.out.BranchMPKI[gi] = doc.BranchMPKI[j]
		for _, p := range m.policies {
			iv, bv := doc.ICacheMPKI[p], doc.BTBMPKI[p]
			if j >= len(iv) || j >= len(bv) {
				return fmt.Errorf("dist: merge: shard %d policy %q vectors are short", s.idx, p)
			}
			m.out.ICacheMPKI[p][gi] = iv[j]
			m.out.BTBMPKI[p][gi] = bv[j]
		}
	}
	if len(doc.Failed) > 0 {
		slot := make(map[string]int, n)
		for j, name := range doc.Workloads {
			slot[name] = s.lo + j
		}
		for _, f := range doc.Failed {
			gi, ok := slot[f.Workload]
			if !ok {
				return fmt.Errorf("dist: merge: shard %d failure annotates unknown workload %q", s.idx, f.Workload)
			}
			m.out.Failed = append(m.out.Failed, f)
			m.failedAt = append(m.failedAt, gi)
		}
	}
	m.cacheHits += doc.Stats.CacheHits
	return nil
}

// result finalizes the stream: every shard folded, Failed normalized
// to global workload order. The returned cacheHits and parkedPeak feed
// Stats.
func (m *merger) result(shards int) (out *Merged, cacheHits, parkedPeak int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, 0, 0, m.err
	}
	if m.frontier != shards {
		return nil, 0, 0, fmt.Errorf("dist: merge: stream stopped at shard %d of %d", m.frontier, shards)
	}
	// Documents fold in ascending shard order and shards are ascending
	// contiguous ranges, so failedAt is already sorted; the stable sort
	// is a defensive identity pass.
	ord := make([]int, len(m.out.Failed))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return m.failedAt[ord[a]] < m.failedAt[ord[b]] })
	sorted := make([]serve.RunErrorDoc, len(ord))
	for i, j := range ord {
		sorted[i] = m.out.Failed[j]
	}
	if len(sorted) == 0 {
		sorted = nil
	}
	m.out.Failed = sorted
	return m.out, m.cacheHits, m.parkedPeak, nil
}
