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
	// statistics
	deadPredictions uint64
	livePredictions uint64
	deadTrainings   uint64
	liveTrainings   uint64
}

// NewPredictor builds the prediction tables for cfg. It panics only on
// configurations rejected by cfg.Validate, so validate first when the
// configuration is user-supplied.
func NewPredictor(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	p := &Predictor{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1}
	p.tables = make([]uint8, cfg.NumTables<<cfg.TableBits)
	return p, nil
}

// Config returns the predictor's (defaulted) configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Indices computes the per-table indices for a signature: NumTables
// different 12-bit hashes of the 16-bit signature (Algorithm 2,
// ComputeIndices). Each table uses its own multiplicative hash so that a
// collision in one table is unlikely to repeat in the others.
func (p *Predictor) Indices(sig uint16) []uint32 {
	idx := make([]uint32, p.cfg.NumTables)
	p.indicesInto(sig, idx)
	return idx
}

// indicesInto fills idx (len NumTables) without allocating.
func (p *Predictor) indicesInto(sig uint16, idx []uint32) {
	s := uint32(sig)
	for t := range idx {
		// Multiplicative skewing per table; the +1 keeps table 0 from
		// being the identity so low-entropy signatures still spread.
		h := s * skewMultipliers[t%len(skewMultipliers)]
		h ^= h >> p.foldShift()
		idx[t] = h & p.mask
	}
}

func (p *Predictor) foldShift() uint32 {
	// Fold the upper product bits down into the index. For 12-bit tables
	// this mixes bits 12.. into 0..11.
	return uint32(p.cfg.TableBits)
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

// Vote is one table's thresholded opinion plus the raw counter.
type Vote struct {
	Counter int
	Dead    bool
}

// Predict reads the counters for sig and combines them against the given
// per-table threshold. With MajorityVote aggregation the prediction is
// dead when a strict majority of tables vote dead; with Summation the
// counter sum is compared against NumTables*threshold.
func (p *Predictor) Predict(sig uint16, threshold int) bool {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	tb := uint(p.cfg.TableBits)
	deadVotes, sum := 0, 0
	for t := range ix {
		c := int(p.tables[uint32(t)<<tb|ix[t]])
		sum += c
		if c >= threshold {
			deadVotes++
		}
	}
	var dead bool
	if p.cfg.Aggregation == Summation {
		dead = sum >= threshold*p.cfg.NumTables
	} else {
		dead = 2*deadVotes > p.cfg.NumTables
	}
	if dead {
		p.deadPredictions++
	} else {
		p.livePredictions++
	}
	return dead
}

// PredictUnanimous is Predict but requires every table to clear the
// threshold — the stricter vote used for bypass decisions, where a
// false positive costs a guaranteed miss.
func (p *Predictor) PredictUnanimous(sig uint16, threshold int) bool {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	tb := uint(p.cfg.TableBits)
	for t := range ix {
		if int(p.tables[uint32(t)<<tb|ix[t]]) < threshold {
			p.livePredictions++
			return false
		}
	}
	p.deadPredictions++
	return true
}

// Train adjusts the counters for sig: incremented when the signature led
// to a dead block (observed at eviction), decremented when it led to
// reuse (observed at a hit) — Algorithm 6.
func (p *Predictor) Train(sig uint16, dead bool) {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	if dead {
		p.deadTrainings++
	} else {
		p.liveTrainings++
	}
	tb := uint(p.cfg.TableBits)
	for t := range ix {
		off := uint32(t)<<tb | ix[t]
		c := p.tables[off]
		if dead {
			if int(c) < p.cfg.CounterMax {
				p.tables[off] = c + 1
			}
		} else if c > 0 {
			p.tables[off] = c - 1
		}
	}
}

// Counters returns the raw counters for sig, for diagnostics and tests.
func (p *Predictor) Counters(sig uint16) []int {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	out := make([]int, len(ix))
	tb := uint(p.cfg.TableBits)
	for t := range ix {
		out[t] = int(p.tables[uint32(t)<<tb|ix[t]])
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
