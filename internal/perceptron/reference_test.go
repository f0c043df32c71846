package perceptron

import (
	"math/rand"
	"testing"
)

// refPredictor is the predictor as it stood before table indices
// narrowed to uint32 and the per-table hash constants moved into New:
// uint64 indices, the history length reloaded and branched on per
// table, Outcome passed by value. It is kept here only as an oracle —
// the optimized Predictor must match it step for step.
type refPredictor struct {
	cfg     Config
	weights []int16
	ntables int
	mask    uint64
	ghr     uint64
	path    uint64
	theta   int32
	stats   Stats
}

type refOutcome struct {
	Taken   bool
	Sum     int32
	indices [MaxTables]uint64
}

func newRef(cfg Config) *refPredictor {
	cfg = cfg.withDefaults()
	p := &refPredictor{
		cfg:     cfg,
		ntables: len(cfg.HistoryLengths),
		mask:    uint64(1)<<cfg.TableBits - 1,
		theta:   int32(cfg.ThetaOverride),
	}
	p.weights = make([]int16, p.ntables<<cfg.TableBits)
	return p
}

func (p *refPredictor) index(t int, pc uint64) uint64 {
	hlen := p.cfg.HistoryLengths[t]
	var seg uint64
	if hlen > 0 {
		if hlen >= 64 {
			seg = p.ghr
		} else {
			seg = p.ghr & (uint64(1)<<hlen - 1)
		}
	}
	h := pc >> 2
	h ^= seg * 0x9E3779B97F4A7C15
	if hlen > 0 {
		h ^= p.path * uint64(t*2+1)
	}
	h ^= h >> 29
	h ^= uint64(t) << 7
	return h & p.mask
}

func (p *refPredictor) Predict(pc uint64) refOutcome {
	var o refOutcome
	for t := 0; t < p.ntables; t++ {
		i := uint64(t)<<p.cfg.TableBits | p.index(t, pc)
		o.indices[t] = i
		o.Sum += int32(p.weights[i])
	}
	o.Taken = o.Sum >= 0
	return o
}

func (p *refPredictor) Update(o refOutcome, pc uint64, taken bool) {
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
		for t := 0; t < p.ntables; t++ {
			w := int32(p.weights[o.indices[t]])
			if taken {
				if w < int32(p.cfg.WeightMax) {
					w++
				}
			} else if w > -int32(p.cfg.WeightMax) {
				w--
			}
			p.weights[o.indices[t]] = int16(w)
		}
	}
	p.ghr <<= 1
	if taken {
		p.ghr |= 1
	}
	p.path = p.path<<3 ^ (pc >> 2)
}

func (p *refPredictor) PushUnconditional(pc uint64) {
	p.path = p.path<<3 ^ (pc >> 2)
}

// matchReference drives p and a reference predictor through the same
// random stream of steps records — conditional branches drawn from a
// small PC pool with per-PC biases, plus unconditional path pushes and
// occasional stats resets — and fails at the first step where the
// prediction (Taken, Sum), the table indices or the statistics differ.
// Even steps go through PredictInto/UpdateFrom, odd steps through the
// by-value Predict/Update wrappers.
func matchReference(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	ref := newRef(cfg)
	rng := rand.New(rand.NewSource(seed))
	pcs := make([]uint64, 1+rng.Intn(64))
	bias := make([]float64, len(pcs))
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(rng.Intn(1<<20))*4
		bias[i] = rng.Float64()
	}
	var o Outcome
	for step := 0; step < steps; step++ {
		k := rng.Intn(len(pcs))
		pc := pcs[k]
		switch rng.Intn(16) {
		case 0:
			p.PushUnconditional(pc ^ 0x40)
			ref.PushUnconditional(pc ^ 0x40)
			continue
		case 1:
			if rng.Intn(64) == 0 {
				p.ResetStats()
				ref.stats = Stats{}
			}
		}
		taken := rng.Float64() < bias[k]
		want := ref.Predict(pc)
		if step%2 == 0 {
			p.PredictInto(&o, pc)
		} else {
			o = p.Predict(pc)
		}
		if o.Taken != want.Taken || o.Sum != want.Sum {
			t.Fatalf("cfg %+v seed %d step %d: prediction (%v, %d), reference (%v, %d)",
				cfg, seed, step, o.Taken, o.Sum, want.Taken, want.Sum)
		}
		for i := 0; i < ref.ntables; i++ {
			if uint64(o.indices[i]) != want.indices[i] {
				t.Fatalf("cfg %+v seed %d step %d: table %d index %d, reference %d",
					cfg, seed, step, i, o.indices[i], want.indices[i])
			}
		}
		if step%2 == 0 {
			p.UpdateFrom(&o, pc, taken)
		} else {
			p.Update(o, pc, taken)
		}
		ref.Update(want, pc, taken)
		if p.Stats() != ref.stats {
			t.Fatalf("cfg %+v seed %d step %d: stats %+v, reference %+v", cfg, seed, step, p.Stats(), ref.stats)
		}
	}
	for i, w := range ref.weights {
		if p.weights[i] != w {
			t.Fatalf("cfg %+v seed %d: weight %d is %d after %d steps, reference %d", cfg, seed, i, p.weights[i], steps, w)
		}
	}
}

// TestPredictorMatchesReference pins the predictor to the reference
// across geometries: defaults, history lengths at both ends of [0,64],
// weight caps 4, 127 and 2^14, and table sizes 4 and 14 bits.
func TestPredictorMatchesReference(t *testing.T) {
	cfgs := []Config{
		{},
		{HistoryLengths: []int{0, 1, 63, 64}},
		{HistoryLengths: []int{64, 0, 64, 0, 7}},
		{WeightMax: 4},
		{WeightMax: 127, ThetaOverride: 1000},
		{TableBits: 4},
		{TableBits: 14, HistoryLengths: []int{0, 2, 4, 8, 16, 32, 48, 56, 60, 62, 63, 64, 64, 12, 6, 3}},
		{TableBits: 4, WeightMax: 4, HistoryLengths: []int{0}},
		{WeightMax: 1 << 14, ThetaOverride: 1 << 20},
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			matchReference(t, cfg, seed, 20_000)
		}
	}
}

// TestWeightsSaturateAt127 trains one bias-table weight far past the
// paper's 8-bit cap in both directions: with a training threshold
// nothing reaches, every update moves the weight, which must pin at
// ±127 and never pass or wrap it.
func TestWeightsSaturateAt127(t *testing.T) {
	cfg := Config{TableBits: 4, HistoryLengths: []int{0}, WeightMax: 127, ThetaOverride: 1 << 20}
	p := newPred(t, cfg)
	ref := newRef(cfg)
	pc := uint64(0x40)
	for _, dir := range []bool{true, false, true} {
		for i := 0; i < 400; i++ {
			var o Outcome
			p.PredictInto(&o, pc)
			want := ref.Predict(pc)
			if o.Sum != want.Sum {
				t.Fatalf("taken=%v step %d: sum %d, reference %d", dir, i, o.Sum, want.Sum)
			}
			p.UpdateFrom(&o, pc, dir)
			ref.Update(want, pc, dir)
		}
		o := p.Predict(pc)
		want := int32(127)
		if !dir {
			want = -127
		}
		if o.Sum != want {
			t.Errorf("after 400 updates taken=%v: weight %d, want %d", dir, o.Sum, want)
		}
		for i, w := range p.weights {
			if w < -127 || w > 127 {
				t.Fatalf("weight %d left [-127, 127]: %d", i, w)
			}
		}
	}
}

// FuzzPerceptronMatchesReference fuzzes the geometry (table size,
// history lengths, weight cap, training threshold) and the stream seed;
// every configuration Validate accepts must match the reference step
// for step.
func FuzzPerceptronMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{}, uint16(0), int16(0), int64(1))
	f.Add(uint8(4), []byte{0, 64}, uint16(127), int16(0), int64(2))
	f.Add(uint8(14), []byte{0, 3, 6, 12, 20, 32, 48, 64}, uint16(4), int16(-5), int64(3))
	f.Add(uint8(6), []byte{1, 63}, uint16(1<<14), int16(30000), int64(4))
	f.Fuzz(func(t *testing.T, tableBits uint8, hist []byte, weightMax uint16, theta int16, seed int64) {
		cfg := Config{
			TableBits:     int(tableBits % 15), // 0 selects the default; up to 14 bits
			WeightMax:     int(weightMax),
			ThetaOverride: int(theta),
		}
		for _, h := range hist {
			cfg.HistoryLengths = append(cfg.HistoryLengths, int(h%70))
		}
		if cfg.Validate() != nil {
			return
		}
		matchReference(t, cfg, seed, 3000)
	})
}
