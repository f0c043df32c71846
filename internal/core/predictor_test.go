package core

import (
	"testing"
	"testing/quick"
)

func newPred(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := NewPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.TableBits != 12 || cfg.NumTables != 3 || cfg.CounterMax != 3 {
		t.Errorf("table defaults wrong: %+v", cfg)
	}
	if cfg.HistoryBits != 16 || cfg.ShiftPerAccess != 4 || cfg.PCBitsPerAccess != 3 {
		t.Errorf("history defaults wrong: %+v", cfg)
	}
	if cfg.DeadThreshold != 2 || cfg.BypassThreshold != 3 || cfg.BTBDeadThreshold != 3 {
		t.Errorf("threshold defaults wrong: %+v", cfg)
	}
	if cfg.Aggregation != MajorityVote {
		t.Error("default aggregation must be majority vote")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TableBits: 30},
		{NumTables: 9},
		{CounterMax: 300},
		{HistoryBits: 20},
		{ShiftPerAccess: 17},
		{PCBitsPerAccess: 4}, // no zero bit under default shift 4
		{DeadThreshold: 5},
		{DeadThreshold: 3, BypassThreshold: 2}, // bypass below dead
		{BTBDeadThreshold: 9},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated, want error", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestAggregationString(t *testing.T) {
	if MajorityVote.String() != "majority" || Summation.String() != "sum" {
		t.Error("Aggregation names wrong")
	}
}

// indices returns sig's per-table indices: its counter offsets less
// the table bits.
func indices(p *Predictor, sig uint16) []uint32 {
	off := make([]uint32, p.cfg.NumTables)
	p.offsets(sig, off)
	for t := range off {
		if int(off[t]>>p.cfg.TableBits) != t {
			panic("offset outside its table")
		}
		off[t] &= p.mask
	}
	return off
}

func TestIndicesDistinctHashes(t *testing.T) {
	p := newPred(t, Config{})
	// Across many signatures the three tables must disagree on index
	// placement most of the time — that is what "skewed" means.
	same := 0
	const n = 4096
	for s := 0; s < n; s++ {
		idx := indices(p, uint16(s))
		if idx[0] == idx[1] && idx[1] == idx[2] {
			same++
		}
		for _, i := range idx {
			if i >= 1<<12 {
				t.Fatalf("index %d out of 12-bit range", i)
			}
		}
	}
	if same > n/100 {
		t.Errorf("%d/%d signatures hit identical indices in all tables", same, n)
	}
}

func TestIndicesDeterministic(t *testing.T) {
	p := newPred(t, Config{})
	f := func(sig uint16) bool {
		a, b := indices(p, sig), indices(p, sig)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrainAndPredictMajority(t *testing.T) {
	p := newPred(t, Config{})
	sig := uint16(0x1234)
	if p.Predict(sig, 2) {
		t.Error("untrained predictor voted dead")
	}
	p.Train(sig, true)
	p.Train(sig, true) // counters now 2 in all three tables
	if !p.Predict(sig, 2) {
		t.Error("trained predictor did not vote dead at threshold 2")
	}
	if p.Predict(sig, 3) {
		t.Error("counters at 2 must not clear threshold 3")
	}
	p.Train(sig, false)
	if p.Predict(sig, 2) {
		t.Error("live training did not pull counters below threshold")
	}
}

func TestCountersSaturate(t *testing.T) {
	p := newPred(t, Config{})
	sig := uint16(0x77)
	for i := 0; i < 100; i++ {
		p.Train(sig, true)
	}
	for _, c := range p.Counters(sig) {
		if c != 3 {
			t.Errorf("counter %d, want saturated 3", c)
		}
	}
	for i := 0; i < 100; i++ {
		p.Train(sig, false)
	}
	for _, c := range p.Counters(sig) {
		if c != 0 {
			t.Errorf("counter %d, want floor 0", c)
		}
	}
}

func TestMajorityToleratesSingleTableAliasing(t *testing.T) {
	p := newPred(t, Config{})
	victim := uint16(0x0001) // signature we never train dead
	// Find a signature that aliases with victim in exactly one table.
	vIdx := indices(p, victim)
	var alias uint16
	found := false
	for s := 2; s < 1<<16; s++ {
		idx := indices(p, uint16(s))
		shared := 0
		for t := range idx {
			if idx[t] == vIdx[t] {
				shared++
			}
		}
		if shared == 1 {
			alias = uint16(s)
			found = true
			break
		}
	}
	if !found {
		t.Skip("no single-table alias found")
	}
	for i := 0; i < 10; i++ {
		p.Train(alias, true)
	}
	if p.Predict(victim, 2) {
		t.Error("majority vote failed to tolerate aliasing in a single table")
	}
}

func TestSummationAggregation(t *testing.T) {
	p := newPred(t, Config{Aggregation: Summation})
	sig := uint16(0x2222)
	p.Train(sig, true)
	p.Train(sig, true) // sum = 6 = 3 tables x threshold 2
	if !p.Predict(sig, 2) {
		t.Error("summation: sum 6 must clear 3x2")
	}
	if p.Predict(sig, 3) {
		t.Error("summation: sum 6 must not clear 3x3")
	}
}

func TestSingleTableConfig(t *testing.T) {
	p := newPred(t, Config{NumTables: 1})
	sig := uint16(0x99)
	p.Train(sig, true)
	p.Train(sig, true)
	if !p.Predict(sig, 2) {
		t.Error("single-table predictor did not predict dead")
	}
}

func TestPredictorStats(t *testing.T) {
	p := newPred(t, Config{})
	p.Predict(1, 2)
	p.Train(1, true)
	p.Train(1, true)
	p.Predict(1, 2)
	p.Train(1, false)
	st := p.Stats()
	if st.LivePredictions != 1 || st.DeadPredictions != 1 {
		t.Errorf("prediction stats %+v", st)
	}
	if st.DeadTrainings != 2 || st.LiveTrainings != 1 {
		t.Errorf("training stats %+v", st)
	}
	p.Reset()
	if p.Stats() != (PredictorStats{}) {
		t.Error("Reset left stats")
	}
	if p.Predict(1, 2) {
		t.Error("Reset left counters")
	}
}

func TestStorageTable1(t *testing.T) {
	// 64KB 8-way I-cache with 64B blocks = 1024 blocks (§IV Table I).
	s := Config{}.StorageFor(1024)
	if s.MetaBitsPerBlock != 21 {
		t.Errorf("metadata bits/block = %d, want 21 (3 LRU + valid + 16 sig + pred)", s.MetaBitsPerBlock)
	}
	if s.TablesTotalBits != 3*4096*2 {
		t.Errorf("table bits = %d, want 24576", s.TablesTotalBits)
	}
	if s.MetaTotalBits != 1024*21 {
		t.Errorf("metadata bits = %d, want %d", s.MetaTotalBits, 1024*21)
	}
	kb := s.KB()
	if kb < 5.0 || kb > 6.0 {
		t.Errorf("total storage %.2f KB, want ~5.6KB (paper reports ~5KB-scale overhead)", kb)
	}
}
