package indirect

import (
	"math/rand"
	"testing"
)

func newPred(t *testing.T) *Predictor {
	t.Helper()
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TableBits: 2},
		{TableBits: 25},
		{TagBits: 2},
		{HistoryLengths: []int{0}},
		{HistoryLengths: []int{99}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config: %v", err)
	}
}

func TestMonomorphicTarget(t *testing.T) {
	p := newPred(t)
	pc, tgt := uint64(0x1000), uint64(0x8000)
	for i := 0; i < 50; i++ {
		o := p.Predict(pc)
		p.Update(o, pc, tgt)
	}
	if acc := p.Stats().Accuracy(); acc < 0.9 {
		t.Errorf("monomorphic accuracy %.3f", acc)
	}
}

func TestHistoryCorrelatedTargets(t *testing.T) {
	// The branch alternates between two targets, perfectly determined by
	// the previous target (history length 1): tagged tables must learn it.
	p := newPred(t)
	pc := uint64(0x2000)
	targets := []uint64{0x8000, 0x9000}
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		tgt := targets[i%2]
		o := p.Predict(pc)
		if i > 2000 {
			total++
			if o.Hit && o.Target == tgt {
				correct++
			}
		}
		p.Update(o, pc, tgt)
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("alternating-target accuracy %.3f, want >= 0.9", acc)
	}
}

func TestPolymorphicRandomBounded(t *testing.T) {
	// Uniformly random targets are unpredictable: accuracy should be low
	// but the predictor must not crash or livelock.
	p := newPred(t)
	rng := rand.New(rand.NewSource(3))
	pc := uint64(0x3000)
	for i := 0; i < 5000; i++ {
		tgt := uint64(0x8000 + rng.Intn(64)*0x40)
		o := p.Predict(pc)
		p.Update(o, pc, tgt)
	}
	if acc := p.Stats().Accuracy(); acc > 0.5 {
		t.Errorf("random-target accuracy %.3f suspiciously high", acc)
	}
}

func TestStatsAndReset(t *testing.T) {
	p := newPred(t)
	pc := uint64(0x99)
	o := p.Predict(pc)
	p.Update(o, pc, 0x1234)
	if p.Stats().Predictions != 1 {
		t.Errorf("predictions %d", p.Stats().Predictions)
	}
	o = p.Predict(pc)
	if !o.Hit || o.Target != 0x1234 {
		t.Errorf("base table lost: %+v", o)
	}
	p.Reset()
	if p.Stats().Predictions != 0 {
		t.Error("Reset did not clear statistics")
	}
	o = p.Predict(pc)
	if o.Hit {
		t.Error("Reset left learned state")
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Predictions: 100, Correct: 80}
	if s.Accuracy() != 0.8 {
		t.Errorf("accuracy %v", s.Accuracy())
	}
	if s.MPKI(10000) != 2 {
		t.Errorf("MPKI %v", s.MPKI(10000))
	}
	var z Stats
	if z.Accuracy() != 0 || z.MPKI(0) != 0 {
		t.Error("zero stats divide by zero")
	}
}

func TestMultiplePCsIsolated(t *testing.T) {
	p := newPred(t)
	for i := 0; i < 50; i++ {
		oa := p.Predict(0x1000)
		p.Update(oa, 0x1000, 0xA000)
		ob := p.Predict(0x2000)
		p.Update(ob, 0x2000, 0xB000)
	}
	if o := p.Predict(0x1000); !o.Hit || o.Target != 0xA000 {
		t.Errorf("pc 0x1000 -> %+v", o)
	}
	if o := p.Predict(0x2000); !o.Hit || o.Target != 0xB000 {
		t.Errorf("pc 0x2000 -> %+v", o)
	}
}
