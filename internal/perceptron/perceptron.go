// Package perceptron implements the hashed perceptron branch direction
// predictor the paper uses in its simulation infrastructure (§II-D,
// §IV-A): a merge of gshare-style hashed indexing, path-based indexing,
// and the perceptron's weight-summation, as described by Tarjan and
// Skadron. Each of several weight tables is indexed by a hash of the
// branch PC with a different-length segment of global history and the
// path of recent branch addresses; the prediction is the sign of the
// weight sum, and training adjusts weights when the prediction was wrong
// or the sum's magnitude is below a threshold.
package perceptron

import "fmt"

// Config parameterizes the predictor. Zero values select defaults sized
// like the CBP reference predictor.
type Config struct {
	// TableBits is the log2 size of each weight table. Default 12.
	TableBits int
	// HistoryLengths gives each table's global-history segment length in
	// branches; a length of 0 makes the table a PC-indexed bias table.
	// Default {0, 3, 6, 12, 20, 32, 48, 64}.
	HistoryLengths []int
	// WeightMax is the saturating weight magnitude. Default 127 (8-bit).
	WeightMax int
	// ThetaOverride fixes the training threshold; 0 derives the
	// perceptron paper's 1.93*h + 14 from the longest history.
	ThetaOverride int
}

func (c Config) withDefaults() Config {
	if c.TableBits == 0 {
		c.TableBits = 12
	}
	if len(c.HistoryLengths) == 0 {
		c.HistoryLengths = []int{0, 3, 6, 12, 20, 32, 48, 64}
	}
	if c.WeightMax == 0 {
		c.WeightMax = 127
	}
	if c.ThetaOverride == 0 {
		longest := 0
		for _, h := range c.HistoryLengths {
			if h > longest {
				longest = h
			}
		}
		c.ThetaOverride = int(1.93*float64(longest)) + 14
	}
	return c
}

// MaxTables bounds how many weight tables a predictor may have; it
// exists so Outcome can carry the per-table indices in a fixed-size
// array instead of a heap slice (Predict runs once per conditional
// branch — an allocation there dominates the replay's heap traffic).
const MaxTables = 16

// Validate rejects configurations that cannot be built.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.TableBits < 4 || c.TableBits > 22 {
		return fmt.Errorf("perceptron: TableBits %d out of range [4,22]", c.TableBits)
	}
	if len(c.HistoryLengths) > MaxTables {
		return fmt.Errorf("perceptron: %d tables exceeds MaxTables %d", len(c.HistoryLengths), MaxTables)
	}
	for _, h := range c.HistoryLengths {
		if h < 0 || h > 64 {
			return fmt.Errorf("perceptron: history length %d out of range [0,64]", h)
		}
	}
	if c.WeightMax < 1 || c.WeightMax > 1<<14 {
		return fmt.Errorf("perceptron: WeightMax %d out of range", c.WeightMax)
	}
	return nil
}

// Stats counts prediction outcomes.
type Stats struct {
	Predictions    uint64
	Mispredictions uint64
}

// Accuracy returns the fraction of correct predictions.
func (s Stats) Accuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return 1 - float64(s.Mispredictions)/float64(s.Predictions)
}

// MPKI returns mispredictions per 1000 of the given instruction count.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Mispredictions) * 1000 / float64(instructions)
}

// Predictor is a hashed perceptron branch direction predictor.
//
// All weight tables live in one flat []int16 slab, table-major: table t
// occupies weights[t<<TableBits : (t+1)<<TableBits]. The per-prediction
// walk then strides through one contiguous allocation instead of
// chasing a slice-of-slices header per table. The paper's weights are
// 8-bit, and the default WeightMax of 127 keeps them in that range, but
// an int8 slab (half the size) measured no faster, so the slab keeps
// room for WeightMax up to 2^14.
type Predictor struct {
	cfg     Config
	weights []int16
	hashes  []tableHash
	mask    uint64
	ghr     uint64 // global outcome history, newest bit in bit 0
	path    uint64 // folded path history of branch PCs
	theta   int32
	wmax    int16
	stats   Stats
}

// tableHash is one table's indexing constants, derived from its history
// length once in New so the per-branch walk neither reloads the length
// nor branches on it.
type tableHash struct {
	histMask uint64 // global-history bits the table sees; 0 for a bias table
	pathMul  uint64 // path-history multiplier 2t+1; 0 for a bias table
	salt     uint64 // t<<7, decorrelates tables with equal inputs
	base     uint32 // offset of the table in the weight slab
}

// New builds a predictor; the configuration is validated first.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Predictor{
		cfg:    cfg,
		hashes: make([]tableHash, len(cfg.HistoryLengths)),
		mask:   uint64(1)<<cfg.TableBits - 1,
		theta:  int32(cfg.ThetaOverride),
		wmax:   int16(cfg.WeightMax),
	}
	for t, hlen := range cfg.HistoryLengths {
		h := &p.hashes[t]
		h.salt = uint64(t) << 7
		h.base = uint32(t) << cfg.TableBits
		if hlen > 0 {
			h.histMask = ^uint64(0) >> (64 - hlen)
			h.pathMul = uint64(t*2 + 1)
		}
	}
	p.weights = make([]int16, len(p.hashes)<<cfg.TableBits)
	return p, nil
}

// Tables returns how many weight tables the predictor has.
func (p *Predictor) Tables() int { return len(p.hashes) }

// TableEntries returns the entry count of each weight table.
func (p *Predictor) TableEntries() int { return 1 << p.cfg.TableBits }

// Outcome carries one prediction's working state from prediction to
// training. The indices live in a fixed-size array (bounded by
// MaxTables) so the round trip is allocation-free; each entry is an
// offset into the flat weight slab, table base included (at most
// MaxTables<<22, so 32 bits hold it).
type Outcome struct {
	Taken   bool
	Sum     int32
	indices [MaxTables]uint32
}

// Predict returns the predicted direction for a conditional branch at
// pc. It is PredictInto for callers that keep no Outcome of their own.
func (p *Predictor) Predict(pc uint64) Outcome {
	var o Outcome
	p.PredictInto(&o, pc)
	return o
}

// PredictInto predicts the conditional branch at pc into o. Each table
// is indexed by a hash of the PC with that table's global-history
// segment and the path register; tables with different history lengths
// see decorrelated hashes, which is the essence of "hashed perceptron".
//
//ghrp:hotpath
func (p *Predictor) PredictInto(o *Outcome, pc uint64) {
	ghr, path, mask := p.ghr, p.path, p.mask
	hs := p.hashes
	idx := o.indices[:len(hs)]
	var sum int32
	for t := range hs {
		th := &hs[t]
		h := pc>>2 ^ (ghr&th.histMask)*0x9E3779B97F4A7C15 ^ path*th.pathMul
		h ^= h >> 29
		h ^= th.salt
		i := th.base | uint32(h&mask)
		idx[t] = i
		sum += int32(p.weights[i])
	}
	o.Sum = sum
	o.Taken = sum >= 0
}

// Update trains the predictor with the actual outcome of the branch
// predicted by o; it is UpdateFrom for callers holding o by value.
func (p *Predictor) Update(o Outcome, pc uint64, taken bool) {
	p.UpdateFrom(&o, pc, taken)
}

// UpdateFrom trains the predictor with the actual outcome of the branch
// predicted into o, then advances the global and path histories. Call
// exactly once per prediction, in program order.
//
//ghrp:hotpath
func (p *Predictor) UpdateFrom(o *Outcome, pc uint64, taken bool) {
	p.stats.Predictions++
	mispredicted := o.Taken != taken
	if mispredicted {
		p.stats.Mispredictions++
	}
	mag := o.Sum
	if mag < 0 {
		mag = -mag
	}
	if mispredicted || mag <= p.theta {
		w, wmax := p.weights, p.wmax
		idx := o.indices[:len(p.hashes)]
		if taken {
			for _, i := range idx {
				if w[i] < wmax {
					w[i]++
				}
			}
		} else {
			for _, i := range idx {
				if w[i] > -wmax {
					w[i]--
				}
			}
		}
	}
	p.pushHistory(pc, taken)
}

// PushUnconditional folds an always-taken control transfer (call, jump,
// return) into the path history without consuming a direction slot; many
// front ends include these in path history to sharpen indexing.
func (p *Predictor) PushUnconditional(pc uint64) {
	p.path = p.path<<3 ^ (pc >> 2)
}

func (p *Predictor) pushHistory(pc uint64, taken bool) {
	p.ghr <<= 1
	if taken {
		p.ghr |= 1
	}
	p.path = p.path<<3 ^ (pc >> 2)
}

// Stats returns the accumulated prediction statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// Reset clears weights, histories and statistics, returning the
// predictor to the state New builds.
//
//ghrp:hotpath
func (p *Predictor) Reset() {
	clear(p.weights)
	p.ghr, p.path = 0, 0
	p.stats = Stats{}
}
