package perceptron

import (
	"math/rand"
	"testing"
)

func newPred(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TableBits: 2},
		{TableBits: 30},
		{HistoryLengths: []int{-1}},
		{HistoryLengths: []int{90}},
		{WeightMax: 1 << 20},
		{WeightMax: 1<<14 + 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated, want error", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
}

func TestThetaDerivation(t *testing.T) {
	cfg := Config{}.withDefaults()
	h := 64.0
	want := int(1.93*h) + 14
	if cfg.ThetaOverride != want {
		t.Errorf("theta = %d, want %d", cfg.ThetaOverride, want)
	}
	over := Config{ThetaOverride: 99}.withDefaults()
	if over.ThetaOverride != 99 {
		t.Error("ThetaOverride ignored")
	}
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := newPred(t, Config{})
	pc := uint64(0x1000)
	for i := 0; i < 100; i++ {
		o := p.Predict(pc)
		p.Update(o, pc, true)
	}
	if o := p.Predict(pc); !o.Taken {
		t.Error("failed to learn an always-taken branch")
	}
	st := p.Stats()
	if st.Accuracy() < 0.9 {
		t.Errorf("accuracy %.2f on always-taken branch", st.Accuracy())
	}
}

func TestLearnsAlternating(t *testing.T) {
	// An alternating branch is perfectly predictable from one bit of
	// global history; a perceptron learns it quickly.
	p := newPred(t, Config{})
	pc := uint64(0x2040)
	correct := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		o := p.Predict(pc)
		if o.Taken == taken {
			correct++
		}
		p.Update(o, pc, taken)
	}
	if acc := float64(correct) / 2000; acc < 0.95 {
		t.Errorf("alternating accuracy %.3f, want >= 0.95", acc)
	}
}

func TestLearnsHistoryCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: pure global
	// history correlation that a bias table alone cannot capture.
	p := newPred(t, Config{})
	rng := rand.New(rand.NewSource(11))
	a, b := uint64(0x3000), uint64(0x3100)
	correct, total := 0, 0
	last := false
	for i := 0; i < 4000; i++ {
		aTaken := rng.Intn(2) == 0
		oa := p.Predict(a)
		p.Update(oa, a, aTaken)
		ob := p.Predict(b)
		if i > 2000 {
			if ob.Taken == last {
				correct++
			}
			total++
		}
		p.Update(ob, b, last)
		last = aTaken
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("history-correlated accuracy %.3f, want >= 0.9", acc)
	}
}

func TestBiasedRandomAccuracyBound(t *testing.T) {
	// A 90%-taken random branch should be predicted close to its bias.
	p := newPred(t, Config{})
	rng := rand.New(rand.NewSource(5))
	pc := uint64(0x4000)
	correct, total := 0, 0
	for i := 0; i < 5000; i++ {
		taken := rng.Float64() < 0.9
		o := p.Predict(pc)
		if i > 1000 {
			if o.Taken == taken {
				correct++
			}
			total++
		}
		p.Update(o, pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Errorf("biased-random accuracy %.3f, want >= 0.85", acc)
	}
}

func TestWeightsSaturate(t *testing.T) {
	p := newPred(t, Config{WeightMax: 4, HistoryLengths: []int{0}})
	pc := uint64(0x10)
	for i := 0; i < 100; i++ {
		o := p.Predict(pc)
		p.Update(o, pc, true)
	}
	o := p.Predict(pc)
	if o.Sum > 4 {
		t.Errorf("sum %d exceeds saturated weight 4 with one table", o.Sum)
	}
	for i := 0; i < 200; i++ {
		o := p.Predict(pc)
		p.Update(o, pc, false)
	}
	o = p.Predict(pc)
	if o.Sum < -4 {
		t.Errorf("sum %d below -4", o.Sum)
	}
}

func TestStatsAndReset(t *testing.T) {
	p := newPred(t, Config{})
	pc := uint64(0x99)
	for i := 0; i < 10; i++ {
		o := p.Predict(pc)
		p.Update(o, pc, i%2 == 0)
	}
	if p.Stats().Predictions != 10 {
		t.Errorf("predictions = %d, want 10", p.Stats().Predictions)
	}
	p.Reset()
	if p.Stats().Predictions != 0 {
		t.Error("Reset did not clear statistics")
	}
	o := p.Predict(pc)
	if o.Sum != 0 {
		t.Error("Reset did not clear weights")
	}
}

func TestMPKIAndAccuracyZero(t *testing.T) {
	var s Stats
	if s.Accuracy() != 0 || s.MPKI(0) != 0 {
		t.Error("zero stats must not divide by zero")
	}
	s = Stats{Predictions: 100, Mispredictions: 10}
	if s.Accuracy() != 0.9 {
		t.Errorf("accuracy %v, want 0.9", s.Accuracy())
	}
	if got := s.MPKI(10000); got != 1 {
		t.Errorf("MPKI %v, want 1", got)
	}
}

func TestPushUnconditionalChangesPath(t *testing.T) {
	p := newPred(t, Config{})
	pc := uint64(0x5000)
	before := p.Predict(pc)
	p.PushUnconditional(0x1234)
	after := p.Predict(pc)
	sameAll := true
	for i := range before.indices {
		if before.indices[i] != after.indices[i] {
			sameAll = false
		}
	}
	if sameAll {
		t.Error("path history push did not affect any table index")
	}
	// The bias table (history length 0) must be unaffected by path.
	if before.indices[0] != after.indices[0] {
		t.Error("bias table index changed with path history")
	}
}
