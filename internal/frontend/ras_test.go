package frontend

import "testing"

func TestRASBasicPushPop(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	r.Push(0x200)
	if tgt, ok := r.Pop(0x200); !ok || tgt != 0x200 {
		t.Errorf("Pop = (%#x, %v), want (0x200, true)", tgt, ok)
	}
	if tgt, ok := r.Pop(0x100); !ok || tgt != 0x100 {
		t.Errorf("Pop = (%#x, %v), want (0x100, true)", tgt, ok)
	}
	st := r.Stats()
	if st.Pushes != 2 || st.Pops != 2 || st.Correct != 2 || st.Mispredicts != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.Accuracy() != 1 {
		t.Errorf("accuracy %v", st.Accuracy())
	}
}

func TestRASUnderflow(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(0x100); ok {
		t.Error("empty stack predicted correctly")
	}
	st := r.Stats()
	if st.Underflows != 1 || st.Mispredicts != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestRASOverflowWrapsAround(t *testing.T) {
	r := NewRAS(2)
	r.Push(0x100)
	r.Push(0x200)
	r.Push(0x300) // overwrites 0x100
	if r.Stats().Overflows != 1 {
		t.Errorf("overflows = %d", r.Stats().Overflows)
	}
	if tgt, ok := r.Pop(0x300); !ok || tgt != 0x300 {
		t.Errorf("Pop = (%#x, %v)", tgt, ok)
	}
	if tgt, ok := r.Pop(0x200); !ok || tgt != 0x200 {
		t.Errorf("Pop = (%#x, %v)", tgt, ok)
	}
	// The overwritten 0x100 is gone: next pop underflows.
	if _, ok := r.Pop(0x100); ok {
		t.Error("popped an overwritten entry")
	}
}

func TestRASMispredict(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	if _, ok := r.Pop(0x999); ok {
		t.Error("wrong target scored correct")
	}
	if r.Stats().Mispredicts != 1 {
		t.Errorf("stats %+v", r.Stats())
	}
}

func TestRASResets(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.ResetStats()
	if r.Stats().Pushes != 0 {
		t.Error("ResetStats did not clear")
	}
	// Contents survive ResetStats.
	if tgt, ok := r.Pop(0x100); !ok || tgt != 0x100 {
		t.Errorf("contents lost: (%#x, %v)", tgt, ok)
	}
	r.Push(0x200)
	r.Reset()
	if _, ok := r.Pop(0x200); ok {
		t.Error("Reset left contents")
	}
}

func TestRASZeroCapacityClamped(t *testing.T) {
	r := NewRAS(0)
	r.Push(0x100)
	if tgt, ok := r.Pop(0x100); !ok || tgt != 0x100 {
		t.Errorf("clamped RAS broken: (%#x, %v)", tgt, ok)
	}
}

func TestEngineRASAccuracyOnCleanTrace(t *testing.T) {
	// Synthetic traces have perfectly matched calls/returns up to task
	// caps and the depth limit, so RAS accuracy must be high.
	recs := testRecords(t, 60_000)
	res := replayRecords(t, DefaultConfig(), PolicyLRU, 0, recs)
	if res.RAS.Pops == 0 {
		t.Fatal("no returns processed")
	}
	if acc := res.RAS.Accuracy(); acc < 0.95 {
		t.Errorf("RAS accuracy %.3f, want >= 0.95", acc)
	}
	if res.Indirect.Predictions == 0 {
		t.Error("no indirect predictions despite indirect dispatch")
	}
}
