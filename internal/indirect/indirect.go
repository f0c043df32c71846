// Package indirect implements an ITTAGE-style indirect branch target
// predictor: a base table indexed by PC plus tagged tables indexed by
// hashes of the PC with increasing lengths of target history. The paper
// leaves "how our techniques interact with high-performance indirect
// branch prediction" as future work (§VI); this package implements that
// extension so the front end can study it (see the frontend engine's
// indirect statistics and the serverfleet example).
package indirect

import "fmt"

// Config parameterizes the predictor.
type Config struct {
	// TableBits is the log2 size of each table. Default 10.
	TableBits int
	// HistoryLengths gives each tagged table's target-history length;
	// the base table (length 0) is implicit. Default {2, 4, 8, 16}.
	HistoryLengths []int
	// TagBits is the tag width of tagged tables. Default 10.
	TagBits int
}

func (c Config) withDefaults() Config {
	if c.TableBits == 0 {
		c.TableBits = 10
	}
	if len(c.HistoryLengths) == 0 {
		c.HistoryLengths = []int{2, 4, 8, 16}
	}
	if c.TagBits == 0 {
		c.TagBits = 10
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.TableBits < 4 || c.TableBits > 20 {
		return fmt.Errorf("indirect: TableBits %d out of range [4,20]", c.TableBits)
	}
	if c.TagBits < 4 || c.TagBits > 16 {
		return fmt.Errorf("indirect: TagBits %d out of range [4,16]", c.TagBits)
	}
	for _, h := range c.HistoryLengths {
		if h < 1 || h > 64 {
			return fmt.Errorf("indirect: history length %d out of range [1,64]", h)
		}
	}
	return nil
}

type baseEntry struct {
	target uint64
	valid  bool
}

type taggedEntry struct {
	target uint64
	tag    uint32
	conf   int8 // 2-bit confidence, -2..1 encoded as 0..3 around useful
	valid  bool
}

// Stats counts indirect target prediction outcomes.
type Stats struct {
	Predictions uint64
	Correct     uint64
}

// Accuracy returns the fraction of correct target predictions.
func (s Stats) Accuracy() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Predictions)
}

// MPKI returns target mispredictions per 1000 of the given instructions.
func (s Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Predictions-s.Correct) * 1000 / float64(instructions)
}

// Predictor is the ITTAGE-style indirect target predictor.
type Predictor struct {
	cfg    Config
	base   []baseEntry
	tagged [][]taggedEntry
	ghist  uint64 // folded target history
	mask   uint32
	stats  Stats
}

// New builds a predictor.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Predictor{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1}
	p.base = make([]baseEntry, 1<<cfg.TableBits)
	p.tagged = make([][]taggedEntry, len(cfg.HistoryLengths))
	for t := range p.tagged {
		p.tagged[t] = make([]taggedEntry, 1<<cfg.TableBits)
	}
	return p, nil
}

// fold compresses hlen nibbles of target history with the PC.
func (p *Predictor) fold(pc uint64, hlen int) uint64 {
	var h uint64
	if hlen >= 16 {
		h = p.ghist
	} else {
		h = p.ghist & (uint64(1)<<(4*hlen) - 1)
	}
	x := (pc >> 2) ^ h*0x9E3779B97F4A7C15
	x ^= x >> 23
	return x
}

func (p *Predictor) index(pc uint64, t int) uint32 {
	return uint32(p.fold(pc, p.cfg.HistoryLengths[t])) & p.mask
}

func (p *Predictor) tag(pc uint64, t int) uint32 {
	return uint32(p.fold(pc, p.cfg.HistoryLengths[t])>>uint(p.cfg.TableBits)) & (uint32(1)<<p.cfg.TagBits - 1)
}

// Outcome carries one prediction's working state to Update.
type Outcome struct {
	Target   uint64
	Hit      bool // some component produced a prediction
	provider int  // -1 = base
	index    uint32
	altBase  uint32
}

// Predict returns the predicted target for an indirect branch at pc.
func (p *Predictor) Predict(pc uint64) Outcome {
	o := Outcome{provider: -1, altBase: uint32(pc>>2) & p.mask}
	// Longest matching tagged table wins.
	for t := len(p.tagged) - 1; t >= 0; t-- {
		idx := p.index(pc, t)
		e := &p.tagged[t][idx]
		if e.valid && e.tag == p.tag(pc, t) {
			o.Target = e.target
			o.Hit = true
			o.provider = t
			o.index = idx
			return o
		}
	}
	b := &p.base[o.altBase]
	if b.valid {
		o.Target = b.target
		o.Hit = true
	}
	return o
}

// Update trains the predictor with the actual target and advances the
// target history. Call once per Predict, in program order.
func (p *Predictor) Update(o Outcome, pc uint64, actual uint64) {
	p.stats.Predictions++
	correct := o.Hit && o.Target == actual
	if correct {
		p.stats.Correct++
	}

	// Base table always tracks the latest target.
	p.base[o.altBase] = baseEntry{target: actual, valid: true}

	if o.provider >= 0 {
		e := &p.tagged[o.provider][o.index]
		if e.target == actual {
			if e.conf < 1 {
				e.conf++
			}
		} else {
			if e.conf > -1 {
				e.conf--
			} else {
				e.target = actual
				e.conf = 0
			}
		}
	}
	// On a misprediction, allocate in one longer table.
	if !correct {
		start := o.provider + 1
		for t := start; t < len(p.tagged); t++ {
			idx := p.index(pc, t)
			e := &p.tagged[t][idx]
			if !e.valid || e.conf <= -1 {
				*e = taggedEntry{target: actual, tag: p.tag(pc, t), conf: 0, valid: true}
				break
			}
			e.conf-- // age the blocker
		}
	}

	// Advance folded target history: four bits per resolved indirect.
	// Aligned targets carry no entropy in their lowest bits, so fold
	// higher-order bits down (cf. core.PCFold).
	p.ghist = p.ghist<<4 | (actual>>2^actual>>6^actual>>12)&0xF
}

// Stats returns the accumulated counters.
func (p *Predictor) Stats() Stats { return p.stats }

// Reset clears everything, returning the predictor to the state New
// builds.
//
//ghrp:hotpath
func (p *Predictor) Reset() {
	clear(p.base)
	for t := range p.tagged {
		clear(p.tagged[t])
	}
	p.ghist = 0
	p.stats = Stats{}
}
