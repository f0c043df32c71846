package core

import "ghrpsim/internal/cache"

// blockMeta is GHRP's per-block metadata: the signature recorded at the
// block's most recent access, the dead prediction bit, and (for BTB
// coupling) the block number it describes.
type blockMeta struct {
	block  uint64
	sig    uint16
	dead   bool
	valid  bool
	reused bool // hit at least once during this residency
}

// ICachePolicy is GHRP as a cache.Policy for the instruction cache
// (Algorithm 1). It owns per-block metadata and drives the shared
// Predictor and History; the BTB adapter consults it through
// BlockPrediction.
type ICachePolicy struct {
	cfg        Config
	pred       *Predictor
	hist       *History
	ways       int
	sets       int
	meta       []blockMeta
	last       []uint64 // per-frame recency timestamps (3-bit LRU equivalent)
	now        uint64
	bypassTick uint64 // counts predicted bypasses for the escape
	// Memoized recencyCutoff result. Victim and the default OnEvict
	// training gate both need the set's median recency for the same
	// eviction, with no touch() possible in between; caching the
	// Victim-time sort halves the per-eviction sorting work. The cache is
	// valid only while (set, now) both match — any access in between
	// bumps now and invalidates it.
	cutSet int
	cutNow uint64
	cutVal uint64
	// stats
	deadEvictions uint64 // victims chosen by dead prediction
	lruEvictions  uint64 // victims chosen by LRU fallback
}

// NewICachePolicy builds a GHRP replacement policy with its own predictor
// and history.
func NewICachePolicy(cfg Config) (*ICachePolicy, error) {
	pred, err := NewPredictor(cfg)
	if err != nil {
		return nil, err
	}
	return &ICachePolicy{cfg: pred.Config(), pred: pred, hist: NewHistory(cfg)}, nil
}

// Predictor exposes the shared prediction tables (used by the BTB
// adapter and by diagnostics).
func (p *ICachePolicy) Predictor() *Predictor { return p.pred }

// History exposes the shared path history registers.
func (p *ICachePolicy) History() *History { return p.hist }

// Name implements cache.Policy.
func (p *ICachePolicy) Name() string { return "GHRP" }

// Attach implements cache.Policy.
func (p *ICachePolicy) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.meta = make([]blockMeta, sets*ways)
	p.last = make([]uint64, sets*ways)
	p.now = 0
}

func (p *ICachePolicy) touch(set, way int) {
	p.now++
	p.last[set*p.ways+way] = p.now
}

func (p *ICachePolicy) lru(set int) int {
	base := set * p.ways
	best, bestAt := 0, p.last[base]
	for w := 1; w < p.ways; w++ {
		if at := p.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best
}

// OnHit implements cache.Policy (Algorithm 1, hit path): the old
// signature is trained live, then replaced by the signature for the
// current history, and the prediction bit refreshed.
func (p *ICachePolicy) OnHit(a cache.Access, way int) {
	m := &p.meta[a.Set*p.ways+way]
	if m.valid {
		p.pred.Train(m.sig, false)
	}
	sig := p.hist.Signature(a.PC)
	m.block = a.Block
	m.sig = sig
	m.dead = p.pred.Predict(sig, p.cfg.DeadThreshold)
	m.valid = true
	m.reused = true
	p.touch(a.Set, way)
	p.hist.Update(a.PC)
}

// Victim implements cache.Policy (Algorithm 5): prefer a predicted-dead
// block — the least recently used one when several are predicted dead,
// so a just-inserted block is never sacrificed while an older dead block
// exists — otherwise evict the LRU block. When every block is predicted
// dead this degenerates exactly to LRU, so GHRP's worst case is the
// baseline. Bypass is decided first with the higher bypass threshold.
func (p *ICachePolicy) Victim(a cache.Access) (int, bool) {
	if p.MayBypass(a) {
		return 0, true
	}
	base := a.Set * p.ways
	// Only blocks in the LRU half of the recency stack are eligible as
	// dead victims: evicting a just-used block on a stale prediction
	// destroys burst reuse, and a genuinely dead block ages into the
	// LRU half almost immediately anyway.
	cut := p.recencyCutoff(a.Set)
	deadWay, deadAt := -1, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if p.meta[base+w].valid && p.meta[base+w].dead &&
			p.last[base+w] <= cut && p.last[base+w] < deadAt {
			deadWay, deadAt = w, p.last[base+w]
		}
	}
	if deadWay >= 0 {
		p.deadEvictions++
		return deadWay, false
	}
	p.lruEvictions++
	return p.lru(a.Set), false
}

// recencyCutoff returns the timestamp of the median-recency block in the
// set: blocks at or below it are in the LRU half of the stack. The
// result is memoized per (set, now) so the Victim choice and the
// OnEvict training gate of one eviction share a single sort.
func (p *ICachePolicy) recencyCutoff(set int) uint64 {
	if p.cutNow == p.now && p.cutSet == set && p.now != 0 {
		return p.cutVal
	}
	base := set * p.ways
	var ts [16]uint64
	n := p.ways
	if n > len(ts) {
		n = len(ts)
	}
	copy(ts[:n], p.last[base:base+n])
	// Insertion sort; associativity is small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	p.cutSet, p.cutNow, p.cutVal = set, p.now, ts[(n-1)/2]
	return p.cutVal
}

// MayBypass implements cache.Policy: the incoming block is bypassed when
// the tables vote above the bypass threshold for the current signature.
// One in 2^BypassEscapeShift predicted bypasses is inserted anyway so
// that a stuck-dead signature can be re-observed and retrained.
func (p *ICachePolicy) MayBypass(a cache.Access) bool {
	if p.cfg.DisableBypass {
		return false
	}
	if !p.pred.PredictUnanimous(p.hist.Signature(a.PC), p.cfg.BypassThreshold) {
		return false
	}
	if p.cfg.BypassEscapeShift >= 0 {
		p.bypassTick++
		if p.bypassTick&(1<<p.cfg.BypassEscapeShift-1) == 0 {
			return false
		}
	}
	return true
}

// OnBypass implements cache.Policy. Per §III-D, a bypassed miss performs
// no further table or metadata updates; only the history advances.
func (p *ICachePolicy) OnBypass(a cache.Access) {
	p.hist.Update(a.PC)
}

// OnEvict implements cache.Policy (Algorithm 6): the victim's recorded
// signature led to a dead block, so its counters are incremented. By
// default the increment applies only to unbiased death evidence: the
// block saw no reuse this generation AND it occupied the LRU position,
// i.e. the eviction would have happened under the baseline policy too.
// Without the LRU gate the predictor trains on its own premature
// evictions, which feeds back into more dead predictions and can
// spiral; gating on the LRU position keeps the training distribution
// fixed regardless of what the policy itself does.
// Config.TrainAllEvictions restores the literal Algorithm 6 for the
// ablation.
func (p *ICachePolicy) OnEvict(a cache.Access, way int, evicted uint64) {
	m := &p.meta[a.Set*p.ways+way]
	if !m.valid {
		return
	}
	train := false
	switch p.cfg.DeadTraining {
	case TrainAllEvictions:
		train = true
	case TrainLRUOnly:
		train = way == p.lru(a.Set)
	case TrainZeroReuseLRU:
		train = !m.reused && way == p.lru(a.Set)
	default: // TrainLRUHalf
		train = p.last[a.Set*p.ways+way] <= p.recencyCutoff(a.Set)
	}
	if train {
		p.pred.Train(m.sig, true)
	}
}

// OnInsert implements cache.Policy: record the new block's signature and
// initial prediction bit (Algorithm 1, lines 18-20).
func (p *ICachePolicy) OnInsert(a cache.Access, way int) {
	sig := p.hist.Signature(a.PC)
	m := &p.meta[a.Set*p.ways+way]
	m.block = a.Block
	m.sig = sig
	m.dead = p.pred.Predict(sig, p.cfg.DeadThreshold)
	m.valid = true
	m.reused = false
	p.touch(a.Set, way)
	p.hist.Update(a.PC)
}

// Reset implements cache.Policy: metadata, recency, the shared
// predictor tables and the path history all return to their
// construction state.
//
//ghrp:hotpath
func (p *ICachePolicy) Reset() {
	clear(p.meta)
	clear(p.last)
	p.now = 0
	p.pred.Reset()
	p.hist.Reset()
	p.bypassTick = 0
	p.deadEvictions = 0
	p.lruEvictions = 0
	p.cutSet, p.cutNow, p.cutVal = 0, 0, 0
}

// BlockPrediction looks up the I-cache metadata for the cache block
// containing a branch and re-evaluates its recorded signature against
// threshold. ok is false when the block is not resident, in which case
// the BTB falls back to LRU behavior for that entry (§III-E).
func (p *ICachePolicy) BlockPrediction(block uint64, threshold int) (dead, ok bool) {
	if p.sets == 0 {
		return false, false
	}
	set := int(block & uint64(p.sets-1))
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		m := &p.meta[base+w]
		if m.valid && m.block == block {
			return p.pred.Predict(m.sig, threshold), true
		}
	}
	return false, false
}

// EvictionBreakdown reports how many victims were chosen by dead-block
// prediction versus LRU fallback.
func (p *ICachePolicy) EvictionBreakdown() (deadChosen, lruChosen uint64) {
	return p.deadEvictions, p.lruEvictions
}
