package dist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ghrpsim/internal/serve"
	"ghrpsim/internal/workload"
)

// synthCoordinator builds a Coordinator purely for its merge state
// (names, policies, shard plan) — no roster, never Run.
func synthCoordinator(t *testing.T, n, shardSize int) *Coordinator {
	t.Helper()
	c, err := New(Options{
		Suite:     &workload.SuiteGen{N: n},
		Policies:  []string{"LRU", "GHRP"},
		ShardSize: shardSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// synthDoc fabricates one shard's result document with values that are
// a pure function of the global workload index, plus a failure
// annotation on every failEvery-th workload (0 = none) — the shape a
// keep-going worker returns.
func synthDoc(c *Coordinator, s *shard, failEvery int) *serve.ResultDoc {
	doc := &serve.ResultDoc{
		ID:         fmt.Sprintf("synth-%d", s.idx),
		Workloads:  s.names,
		Policies:   c.job.Request.Policies,
		ICacheMPKI: map[string][]float64{},
		BTBMPKI:    map[string][]float64{},
	}
	doc.Stats.CacheHits = 1
	for pi, p := range c.job.Request.Policies {
		iv := make([]float64, len(s.names))
		bv := make([]float64, len(s.names))
		for j := range s.names {
			gi := s.lo + j
			iv[j] = float64(gi) + float64(pi)/10
			bv[j] = float64(gi) * 2
		}
		doc.ICacheMPKI[p] = iv
		doc.BTBMPKI[p] = bv
	}
	doc.BranchMPKI = make([]float64, len(s.names))
	for j := range s.names {
		gi := s.lo + j
		doc.BranchMPKI[j] = float64(gi) / 3
		if failEvery > 0 && gi%failEvery == 0 {
			doc.Failed = append(doc.Failed, serve.RunErrorDoc{
				Workload: s.names[j],
				Error:    fmt.Sprintf("synthetic failure %d", gi),
			})
		}
	}
	return doc
}

// identity renders a Merged for byte comparison, Stats excluded.
func identity(t *testing.T, m *Merged) []byte {
	t.Helper()
	blob, err := m.IdentityJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStreamingMergeMatchesBufferedOracle is the core property: for
// ragged completion orders (what hedging, retries and uneven workers
// produce), the streaming fold emits bytes identical to the buffered
// mergeDocs oracle over the same documents — keep-going failure
// annotations included, in suite-global order.
func TestStreamingMergeMatchesBufferedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n, shardSize, failEvery int
	}{
		{n: 12, shardSize: 1, failEvery: 0},
		{n: 12, shardSize: 1, failEvery: 3},
		{n: 23, shardSize: 4, failEvery: 5}, // ragged tail shard
		{n: 8, shardSize: 8, failEvery: 2},  // single shard
	} {
		c := synthCoordinator(t, tc.n, tc.shardSize)
		docs := make([]*serve.ResultDoc, len(c.shards))
		for i, s := range c.shards {
			docs[i] = synthDoc(c, s, tc.failEvery)
		}
		want, err := c.mergeDocs(docs)
		if err != nil {
			t.Fatalf("oracle merge: %v", err)
		}
		wantBytes := identity(t, want)

		for trial := 0; trial < 10; trial++ {
			m := newMerger(c.names, c.job.Request.Policies)
			order := rng.Perm(len(c.shards))
			for _, i := range order {
				if err := m.complete(c.shards[i], docs[i]); err != nil {
					t.Fatalf("n=%d size=%d trial %d: complete(%d): %v", tc.n, tc.shardSize, trial, i, err)
				}
			}
			got, cacheHits, parkedPeak, err := m.result(len(c.shards))
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			if !bytes.Equal(identity(t, got), wantBytes) {
				t.Fatalf("n=%d size=%d trial %d order %v: streaming merge differs from buffered oracle", tc.n, tc.shardSize, trial, order)
			}
			if cacheHits != len(c.shards) {
				t.Errorf("cacheHits = %d, want %d (one per document)", cacheHits, len(c.shards))
			}
			if parkedPeak > len(c.shards) {
				t.Errorf("parkedPeak = %d exceeds shard count %d", parkedPeak, len(c.shards))
			}
		}
	}
}

// Hedged shards can complete twice (the loser finishes after the
// winner already folded); the second document must be ignored, not
// double-folded.
func TestStreamingMergeDuplicateCompletions(t *testing.T) {
	c := synthCoordinator(t, 10, 2)
	docs := make([]*serve.ResultDoc, len(c.shards))
	for i, s := range c.shards {
		docs[i] = synthDoc(c, s, 3)
	}
	want, err := c.mergeDocs(docs)
	if err != nil {
		t.Fatal(err)
	}

	m := newMerger(c.names, c.job.Request.Policies)
	// Reverse order (everything parks), duplicating every complete —
	// once while parked, once after folding.
	for i := len(c.shards) - 1; i >= 0; i-- {
		if err := m.complete(c.shards[i], docs[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.complete(c.shards[i], docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range c.shards {
		if err := m.complete(c.shards[i], docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, _, _, err := m.result(len(c.shards))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(identity(t, got), identity(t, want)) {
		t.Fatal("duplicate completions changed the merged result")
	}
}

// A permanently-failed shard tombstones: the frontier passes it so the
// dispatch gate never wedges on a dead frontier shard, and later
// completions keep folding.
func TestStreamingMergeTombstoneAdvancesFrontier(t *testing.T) {
	c := synthCoordinator(t, 12, 2) // 6 shards
	m := newMerger(c.names, c.job.Request.Policies)

	// Shards 1 and 2 park behind the (eventually failing) shard 0.
	for _, i := range []int{1, 2} {
		if err := m.complete(c.shards[i], synthDoc(c, c.shards[i], 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Frontier(); got != 0 {
		t.Fatalf("frontier = %d before the blocking shard resolved, want 0", got)
	}
	m.fail(0)
	if got := m.Frontier(); got != 3 {
		t.Fatalf("frontier = %d after tombstoning shard 0, want 3 (parked shards drained)", got)
	}
	// A late completion for the tombstoned shard is ignored.
	if err := m.complete(c.shards[0], synthDoc(c, c.shards[0], 0)); err != nil {
		t.Fatal(err)
	}
	if got := m.Frontier(); got != 3 {
		t.Fatalf("frontier moved to %d after a late tombstoned completion", got)
	}
}

func TestStreamingMergeRejectsMalformedDocs(t *testing.T) {
	c := synthCoordinator(t, 6, 2)
	cases := map[string]func(*serve.ResultDoc){
		"missing doc":     nil,
		"policy count":    func(d *serve.ResultDoc) { d.Policies = d.Policies[:1] },
		"policy name":     func(d *serve.ResultDoc) { d.Policies = []string{"LRU", "NOPE"} },
		"workload count":  func(d *serve.ResultDoc) { d.Workloads = d.Workloads[:1] },
		"workload name":   func(d *serve.ResultDoc) { d.Workloads[1] = "bogus" },
		"short branch":    func(d *serve.ResultDoc) { d.BranchMPKI = d.BranchMPKI[:1] },
		"short policy":    func(d *serve.ResultDoc) { d.ICacheMPKI["LRU"] = nil },
		"unknown failure": func(d *serve.ResultDoc) { d.Failed = []serve.RunErrorDoc{{Workload: "bogus", Error: "x"}} },
	}
	for name, mutate := range cases {
		m := newMerger(c.names, c.job.Request.Policies)
		s := c.shards[0]
		var doc *serve.ResultDoc
		if mutate != nil {
			doc = synthDoc(c, s, 0)
			// Copy the workloads slice: synthDoc aliases shard names.
			doc.Workloads = append([]string(nil), doc.Workloads...)
			mutate(doc)
		}
		if err := m.complete(s, doc); err == nil {
			t.Errorf("%s: complete accepted a malformed document", name)
		}
	}
}

// mergeDocs is the property tests' buffered oracle: it folds every
// shard result document at once into the suite-global merged result,
// looking workloads up by name. Docs may cover any partition of the
// suite; every workload must be covered exactly once and every
// document must carry exactly the coordinator's policy set, in order.
func (c *Coordinator) mergeDocs(docs []*serve.ResultDoc) (*Merged, error) {
	index := make(map[string]int, len(c.names))
	for i, name := range c.names {
		index[name] = i
	}
	m := &Merged{
		Workloads:  c.names,
		Policies:   c.job.Request.Policies,
		ICacheMPKI: make(map[string][]float64, len(c.job.Request.Policies)),
		BTBMPKI:    make(map[string][]float64, len(c.job.Request.Policies)),
		BranchMPKI: make([]float64, len(c.names)),
	}
	for _, p := range c.job.Request.Policies {
		m.ICacheMPKI[p] = make([]float64, len(c.names))
		m.BTBMPKI[p] = make([]float64, len(c.names))
	}
	covered := make([]bool, len(c.names))

	for d, doc := range docs {
		if doc == nil {
			return nil, fmt.Errorf("dist: merge: shard document %d is missing", d)
		}
		if len(doc.Policies) != len(c.job.Request.Policies) {
			return nil, fmt.Errorf("dist: merge: document %d has %d policies, want %d", d, len(doc.Policies), len(c.job.Request.Policies))
		}
		for i, p := range doc.Policies {
			if p != c.job.Request.Policies[i] {
				return nil, fmt.Errorf("dist: merge: document %d policy %d is %q, want %q", d, i, p, c.job.Request.Policies[i])
			}
		}
		if len(doc.BranchMPKI) != len(doc.Workloads) {
			return nil, fmt.Errorf("dist: merge: document %d has %d branch values over %d workloads", d, len(doc.BranchMPKI), len(doc.Workloads))
		}
		for j, name := range doc.Workloads {
			gi, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("dist: merge: document %d covers unknown workload %q", d, name)
			}
			if covered[gi] {
				return nil, fmt.Errorf("dist: merge: workload %q covered twice", name)
			}
			covered[gi] = true
			m.BranchMPKI[gi] = doc.BranchMPKI[j]
			for _, p := range c.job.Request.Policies {
				iv, bv := doc.ICacheMPKI[p], doc.BTBMPKI[p]
				if j >= len(iv) || j >= len(bv) {
					return nil, fmt.Errorf("dist: merge: document %d policy %q vectors are short", d, p)
				}
				m.ICacheMPKI[p][gi] = iv[j]
				m.BTBMPKI[p][gi] = bv[j]
			}
		}
		m.Failed = append(m.Failed, doc.Failed...)
	}
	for gi, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("dist: merge: workload %q is uncovered", c.names[gi])
		}
	}
	// Shard documents arrive in shard order, but hedging and the local
	// lane make no ordering promises — normalize Failed to the global
	// workload order a single-process run reports.
	sort.SliceStable(m.Failed, func(i, j int) bool {
		return index[m.Failed[i].Workload] < index[m.Failed[j].Workload]
	})
	return m, nil
}
