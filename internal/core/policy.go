package core

import "ghrpsim/internal/cache"

// blockMeta is GHRP's per-block metadata: the dead prediction bit and,
// for BTB coupling, the block number it describes. The signature
// recorded at the block's most recent access is kept as its counter
// offsets (Predictor.offsets), NumTables per frame in
// ICachePolicy.slots, since training and the BTB's predictions need only
// those.
type blockMeta struct {
	block  uint64
	dead   bool
	valid  bool
	reused bool // hit at least once during this residency
}

// ICachePolicy is GHRP as a cache.Policy for the instruction cache
// (Algorithm 1). It owns per-block metadata and drives the shared
// Predictor and History; the BTB adapter consults it through
// BlockPrediction.
type ICachePolicy struct {
	cfg  Config
	pred Predictor
	hist History
	ways int
	sets int
	meta []blockMeta
	// slots holds each frame's recorded signature as its counter
	// offsets, NumTables per frame: a hit's live training, an
	// eviction's dead training and the BTB's predictions read them
	// instead of hashing the signature again.
	slots []uint32
	rec   cache.Recency // LRU order (3-bit LRU equivalent)
	// lastFrame is the frame of the latest hit or insertion: the block a
	// BTB probe most likely asks about, since a taken branch almost
	// always ends the block fetched just before it (BlockPrediction).
	lastFrame int
	// missSig and missSlots memoize the offsets of the latest signature
	// MayBypass hashed, so that an insertion right after the bypass
	// vote, under the same history, does not hash it again. Offsets
	// depend on the signature alone, so the memo never goes stale.
	missSig    uint16
	missSlots  [maxTables]uint32
	bypassTick uint64 // counts predicted bypasses for the escape
	// Memoized recencyCutoff result. Victim and the default OnEvict
	// training gate both need the set's median recency for the same
	// eviction, with no Touch possible in between; caching the
	// Victim-time sort halves the per-eviction sorting work. The cache is
	// valid only while (set, rec.Now()) both match — any access in
	// between advances the clock and invalidates it.
	cutSet int
	cutNow uint64
	cutVal uint64
	cutBuf []uint64 // one set's timestamps, sorted by recencyCutoff
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
	p := &ICachePolicy{cfg: pred.Config(), pred: *pred, hist: newHistory(cfg)}
	p.resetMemo()
	return p, nil
}

// Predictor exposes the shared prediction tables (used by the BTB
// adapter and by diagnostics).
func (p *ICachePolicy) Predictor() *Predictor { return &p.pred }

// History exposes the shared path history registers.
func (p *ICachePolicy) History() *History { return &p.hist }

// Name implements cache.Policy.
func (p *ICachePolicy) Name() string { return "GHRP" }

// Attach implements cache.Policy.
func (p *ICachePolicy) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.meta = make([]blockMeta, sets*ways)
	p.slots = make([]uint32, sets*ways*p.cfg.NumTables)
	p.rec.Attach(sets, ways)
	p.cutBuf = make([]uint64, ways)
	p.lastFrame = 0
}

// frameSlots returns frame f's recorded counter offsets.
func (p *ICachePolicy) frameSlots(f int) []uint32 {
	n := p.cfg.NumTables
	return p.slots[f*n : f*n+n]
}

// OnHit implements cache.Policy (Algorithm 1, hit path): the old
// signature is trained live, then replaced by the signature for the
// current history, and the prediction bit refreshed.
func (p *ICachePolicy) OnHit(a cache.Access, way int) {
	f := a.Set*p.ways + way
	m := &p.meta[f]
	off, sig := p.frameSlots(f), p.hist.Signature(a.PC)
	if m.valid {
		m.dead = p.pred.reuseAt(off, sig, p.cfg.DeadThreshold)
	} else {
		p.pred.offsets(sig, off)
		m.dead = p.pred.predictAt(off, p.cfg.DeadThreshold)
	}
	m.block = a.Block
	m.valid = true
	m.reused = true
	p.rec.Touch(a.Set, way)
	p.lastFrame = f
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
	for w, at := range p.rec.In(a.Set) {
		if p.meta[base+w].valid && p.meta[base+w].dead && at <= cut && at < deadAt {
			deadWay, deadAt = w, at
		}
	}
	if deadWay >= 0 {
		p.deadEvictions++
		return deadWay, false
	}
	p.lruEvictions++
	return p.rec.LRU(a.Set), false
}

// recencyCutoff returns the timestamp of the median-recency block in the
// set: blocks at or below it are in the LRU half of the stack. The
// result is memoized per (set, now) so the Victim choice and the
// OnEvict training gate of one eviction share a single sort.
func (p *ICachePolicy) recencyCutoff(set int) uint64 {
	now := p.rec.Now()
	if p.cutNow == now && p.cutSet == set && now != 0 {
		return p.cutVal
	}
	ts := p.cutBuf
	n := copy(ts, p.rec.In(set))
	// Insertion sort over every way; associativity is small.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	p.cutSet, p.cutNow, p.cutVal = set, now, ts[(n-1)/2]
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
	if sig := p.hist.Signature(a.PC); sig != p.missSig {
		p.missSig = sig
		p.pred.offsets(sig, p.missSlots[:p.cfg.NumTables])
	}
	if !p.pred.unanimousAt(p.missSlots[:p.cfg.NumTables], p.cfg.BypassThreshold) {
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
	f := a.Set*p.ways + way
	m := &p.meta[f]
	if !m.valid {
		return
	}
	train := false
	switch p.cfg.DeadTraining {
	case TrainAllEvictions:
		train = true
	case TrainLRUOnly:
		train = way == p.rec.LRU(a.Set)
	case TrainZeroReuseLRU:
		train = !m.reused && way == p.rec.LRU(a.Set)
	default: // TrainLRUHalf
		train = p.rec.In(a.Set)[way] <= p.recencyCutoff(a.Set)
	}
	if train {
		p.pred.trainAt(p.frameSlots(f), true)
	}
}

// OnInsert implements cache.Policy: record the new block's signature and
// initial prediction bit (Algorithm 1, lines 18-20). The history has not
// moved since the bypass vote, so the vote's offsets are usually the
// ones to record.
func (p *ICachePolicy) OnInsert(a cache.Access, way int) {
	f := a.Set*p.ways + way
	off := p.frameSlots(f)
	if sig := p.hist.Signature(a.PC); sig == p.missSig {
		copy(off, p.missSlots[:])
	} else {
		p.pred.offsets(sig, off)
	}
	m := &p.meta[f]
	m.block = a.Block
	m.dead = p.pred.predictAt(off, p.cfg.DeadThreshold)
	m.valid = true
	m.reused = false
	p.rec.Touch(a.Set, way)
	p.lastFrame = f
	p.hist.Update(a.PC)
}

// Reset implements cache.Policy: metadata, recency, the shared
// predictor tables and the path history all return to their
// construction state.
//
//ghrp:hotpath
func (p *ICachePolicy) Reset() {
	clear(p.meta)
	clear(p.slots)
	p.rec.Reset()
	p.lastFrame = 0
	p.pred.Reset()
	p.hist.Reset()
	p.bypassTick = 0
	p.deadEvictions = 0
	p.lruEvictions = 0
	p.cutSet, p.cutNow, p.cutVal = 0, 0, 0
	p.resetMemo()
}

// resetMemo points the miss memo at signature 0, the state a new policy
// starts from.
func (p *ICachePolicy) resetMemo() {
	p.missSig = 0
	p.pred.offsets(0, p.missSlots[:p.cfg.NumTables])
}

// BlockPrediction looks up the I-cache metadata for the cache block
// containing a branch and re-evaluates its recorded signature against
// threshold. ok is false when the block is not resident, in which case
// the BTB falls back to LRU behavior for that entry (§III-E).
//
// The frame of the latest hit or insertion is tried before the set is
// scanned. A block occupies at most one frame, so a match there is the
// frame the scan would find: the shortcut changes no result.
func (p *ICachePolicy) BlockPrediction(block uint64, threshold int) (dead, ok bool) {
	if p.sets == 0 {
		return false, false
	}
	f := p.lastFrame
	if m := &p.meta[f]; !m.valid || m.block != block {
		if f = p.find(block); f < 0 {
			return false, false
		}
	}
	return p.pred.predictAt(p.frameSlots(f), threshold), true
}

// find returns the frame holding block, or -1.
func (p *ICachePolicy) find(block uint64) int {
	base := int(block&uint64(p.sets-1)) * p.ways
	for f := base; f < base+p.ways; f++ {
		if m := &p.meta[f]; m.valid && m.block == block {
			return f
		}
	}
	return -1
}

// EvictionBreakdown reports how many victims were chosen by dead-block
// prediction versus LRU fallback.
func (p *ICachePolicy) EvictionBreakdown() (deadChosen, lruChosen uint64) {
	return p.deadEvictions, p.lruEvictions
}

// PredictedDead reports the prediction bit recorded for the block in
// frame (set, way): false for an empty frame. Diagnostics read it; it
// changes no state.
func (p *ICachePolicy) PredictedDead(set, way int) bool {
	m := &p.meta[set*p.ways+way]
	return m.valid && m.dead
}
