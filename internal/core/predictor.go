package core

// Predictor is the GHRP prediction-table machinery: NumTables skewed
// tables of saturating counters indexed by distinct hashes of a
// signature, combined by majority vote (or summation, for the ablation).
// One Predictor instance serves both the I-cache policy and the BTB
// adapter — the paper's key storage insight is that the BTB reuses the
// I-cache's tables and metadata (§III-E).
type Predictor struct {
	cfg Config
	// tables holds all NumTables counter tables in one pointer-free slab,
	// table-major: table t's entry i lives at t<<TableBits | i. The flat
	// layout keeps the per-prediction loads free of slice-header chasing
	// and the slab invisible to the garbage collector's scan phase.
	tables []uint8
	mask   uint32
	// skew holds the first NumTables skew multipliers.
	skew []uint32
	// statistics
	deadPredictions uint64
	livePredictions uint64
	deadTrainings   uint64
	liveTrainings   uint64
}

// maxTables bounds Config.NumTables: one skew multiplier per table.
const maxTables = len(skewMultipliers)

// NewPredictor builds the prediction tables for cfg. It panics only on
// configurations rejected by cfg.Validate, so validate first when the
// configuration is user-supplied.
func NewPredictor(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	p := &Predictor{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1, skew: skewMultipliers[:cfg.NumTables]}
	p.tables = make([]uint8, cfg.NumTables<<cfg.TableBits)
	return p, nil
}

// Config returns the predictor's (defaulted) configuration.
func (p *Predictor) Config() Config { return p.cfg }

// offsets writes the slab offsets of sig's counters into off, which must
// hold NumTables entries: table t's offset is t<<TableBits | h_t(sig),
// where h_t is table t's 12-bit hash of the 16-bit signature (Algorithm
// 2, ComputeIndices). Each table uses its own multiplicative hash so
// that a collision in one table is unlikely to repeat in the others.
// Offsets depend on the signature alone, so a caller that keeps them
// beside the signature's block never hashes it again: predictAt,
// unanimousAt, trainAt and reuseAt take them directly.
//
//ghrp:hotpath
func (p *Predictor) offsets(sig uint16, off []uint32) {
	s := uint32(sig)
	for t, m := range p.skew[:len(off)] {
		off[t] = p.offset(t, s, m)
	}
}

// offset is table t's offset for signature s under skew multiplier m:
// multiplicative skewing, the upper product bits folded down into the
// index.
func (p *Predictor) offset(t int, s, m uint32) uint32 {
	tb := uint32(p.cfg.TableBits)
	h := s * m
	h ^= h >> tb
	return uint32(t)<<tb | h&p.mask
}

var skewMultipliers = [...]uint32{
	0x9E3779B1, // golden-ratio hash
	0x85EBCA77,
	0xC2B2AE3D,
	0x27D4EB2F,
	0x165667B1,
	0xD3A2646D,
	0xFD7046C5,
}

// vote is 1 when counter c reaches threshold, else 0: the sign of
// c − threshold, so counting votes never branches on a counter.
func vote(c, threshold int) int { return 1 + (c-threshold)>>63 }

// up and down step a counter toward CounterMax or 0 by the sign of its
// distance to the bound, so a saturated counter stays put without a
// branch.
func (p *Predictor) up(c uint8) uint8 { return c + uint8((int(c)-p.cfg.CounterMax)>>63&1) }

func down(c uint8) uint8 { return c - uint8(-int(c)>>63&1) }

// conclude aggregates n tables' votes and counter sum into a prediction
// and counts it. With MajorityVote aggregation the prediction is dead
// when a strict majority of tables vote dead; with Summation the counter
// sum is compared against n*threshold.
func (p *Predictor) conclude(votes, sum, n, threshold int) bool {
	dead := 2*votes > n
	if p.cfg.Aggregation == Summation {
		dead = sum >= threshold*n
	}
	p.count(dead)
	return dead
}

// count records one prediction in the statistics.
func (p *Predictor) count(dead bool) {
	if dead {
		p.deadPredictions++
	} else {
		p.livePredictions++
	}
}

// predictAt combines the counters at off (from offsets) against the
// given per-table threshold (see conclude).
//
//ghrp:hotpath
func (p *Predictor) predictAt(off []uint32, threshold int) bool {
	tables, votes, sum := p.tables, 0, 0
	for _, o := range off {
		c := int(tables[o])
		sum += c
		votes += vote(c, threshold)
	}
	return p.conclude(votes, sum, len(off), threshold)
}

// unanimousAt is predictAt but requires every table to clear the
// threshold — the stricter vote used for bypass decisions, where a
// false positive costs a guaranteed miss.
//
//ghrp:hotpath
func (p *Predictor) unanimousAt(off []uint32, threshold int) bool {
	tables, votes := p.tables, 0
	for _, o := range off {
		votes += vote(int(tables[o]), threshold)
	}
	dead := votes == len(off)
	p.count(dead)
	return dead
}

// trainAt adjusts the counters at off (from offsets): incremented when
// the signature led to a dead block (observed at eviction), decremented
// when it led to reuse (observed at a hit) — Algorithm 6.
//
//ghrp:hotpath
func (p *Predictor) trainAt(off []uint32, dead bool) {
	tables := p.tables
	if dead {
		p.deadTrainings++
		for _, o := range off {
			tables[o] = p.up(tables[o])
		}
		return
	}
	p.liveTrainings++
	for _, o := range off {
		tables[o] = down(tables[o])
	}
}

// reuseAt is a hit's whole predictor update in one pass over the tables:
// trainAt(off, false) for the signature off holds, then offsets(sig,
// off), then predictAt(off, threshold). Tables never share an entry, so
// doing table by table what the three do in turn changes no counter and
// no outcome.
//
//ghrp:hotpath
func (p *Predictor) reuseAt(off []uint32, sig uint16, threshold int) bool {
	p.liveTrainings++
	s, tables := uint32(sig), p.tables
	votes, sum := 0, 0
	for t, m := range p.skew[:len(off)] {
		tables[off[t]] = down(tables[off[t]])
		o := p.offset(t, s, m)
		off[t] = o
		c := int(tables[o])
		sum += c
		votes += vote(c, threshold)
	}
	return p.conclude(votes, sum, len(off), threshold)
}

// Predict is predictAt for a signature: it hashes sig and combines its
// counters against threshold.
func (p *Predictor) Predict(sig uint16, threshold int) bool {
	var buf [maxTables]uint32
	off := buf[:p.cfg.NumTables]
	p.offsets(sig, off)
	return p.predictAt(off, threshold)
}

// Train is trainAt for a signature.
func (p *Predictor) Train(sig uint16, dead bool) {
	var buf [maxTables]uint32
	off := buf[:p.cfg.NumTables]
	p.offsets(sig, off)
	p.trainAt(off, dead)
}

// Counters returns the raw counters for sig, for diagnostics and tests.
func (p *Predictor) Counters(sig uint16) []int {
	out := make([]int, p.cfg.NumTables)
	var buf [maxTables]uint32
	off := buf[:p.cfg.NumTables]
	p.offsets(sig, off)
	for t, o := range off {
		out[t] = int(p.tables[o])
	}
	return out
}

// PredictorStats reports prediction and training activity.
type PredictorStats struct {
	DeadPredictions uint64
	LivePredictions uint64
	DeadTrainings   uint64
	LiveTrainings   uint64
}

// Stats returns accumulated activity counters.
func (p *Predictor) Stats() PredictorStats {
	return PredictorStats{
		DeadPredictions: p.deadPredictions,
		LivePredictions: p.livePredictions,
		DeadTrainings:   p.deadTrainings,
		LiveTrainings:   p.liveTrainings,
	}
}

// Reset clears tables and statistics.
//
//ghrp:hotpath
func (p *Predictor) Reset() {
	clear(p.tables)
	p.deadPredictions = 0
	p.livePredictions = 0
	p.deadTrainings = 0
	p.liveTrainings = 0
}
