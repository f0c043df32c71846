package cache

import (
	"testing"
)

// scriptPolicy is a minimal test policy that evicts way 0 and records the
// protocol calls it receives.
type scriptPolicy struct {
	sets, ways int
	calls      []string
	bypassNext bool
}

func (p *scriptPolicy) Name() string { return "script" }
func (p *scriptPolicy) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.calls = append(p.calls, "attach")
}
func (p *scriptPolicy) OnHit(a Access, way int) { p.calls = append(p.calls, "hit") }
func (p *scriptPolicy) Victim(a Access) (int, bool) {
	p.calls = append(p.calls, "victim")
	if p.bypassNext {
		return 0, true
	}
	return 0, false
}
func (p *scriptPolicy) MayBypass(a Access) bool { return p.bypassNext }
func (p *scriptPolicy) OnBypass(a Access)       { p.calls = append(p.calls, "bypass") }
func (p *scriptPolicy) OnInsert(a Access, way int) {
	p.calls = append(p.calls, "insert")
}
func (p *scriptPolicy) OnEvict(a Access, way int, evicted uint64) {
	p.calls = append(p.calls, "evict")
}
func (p *scriptPolicy) Reset() { p.calls = nil }

func TestNewValidation(t *testing.T) {
	p := &scriptPolicy{}
	if _, err := New(0, 4, p); err == nil {
		t.Error("accepted zero sets")
	}
	if _, err := New(3, 4, p); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
	if _, err := New(4, 0, p); err == nil {
		t.Error("accepted zero ways")
	}
	if _, err := New(4, 4, nil); err == nil {
		t.Error("accepted nil policy")
	}
	c, err := New(4, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 4 || c.Ways() != 2 {
		t.Errorf("geometry (%d,%d), want (4,2)", c.Sets(), c.Ways())
	}
	if c.Policy() != p {
		t.Error("Policy() does not return attached policy")
	}
}

func TestHitMissProtocol(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(2, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	// Miss into free frame: no Victim call.
	if hit := c.Access(Access{Block: 0}); hit {
		t.Error("first access hit")
	}
	// Hit.
	if hit := c.Access(Access{Block: 0}); !hit {
		t.Error("second access missed")
	}
	// Fill the other way of set 0, then force an eviction.
	c.Access(Access{Block: 2}) // set 0 (2 mod 2 == 0)
	c.Access(Access{Block: 4}) // set 0, must evict way 0
	want := []string{"attach", "insert", "hit", "insert", "victim", "evict", "insert"}
	if len(p.calls) != len(want) {
		t.Fatalf("calls %v, want %v", p.calls, want)
	}
	for i := range want {
		if p.calls[i] != want[i] {
			t.Fatalf("calls %v, want %v", p.calls, want)
		}
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 1 || st.Misses != 3 || st.Evictions != 1 {
		t.Errorf("stats %+v wrong", st)
	}
}

func TestBypass(t *testing.T) {
	p := &scriptPolicy{bypassNext: true}
	c, err := New(2, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	hit, slot := AccessWith(c, c.Policy(), Access{Block: 0})
	if hit || slot >= 0 {
		t.Errorf("hit=%v slot=%d, want miss+bypass", hit, slot)
	}
	if c.Lookup(0) {
		t.Error("bypassed block was inserted")
	}
	if st := c.Stats(); st.Bypasses != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 bypass 1 miss", st)
	}
	// With a full set the bypass decision goes through Victim.
	p.bypassNext = false
	c.Access(Access{Block: 0})
	p.bypassNext = true
	if _, slot = AccessWith(c, c.Policy(), Access{Block: 2}); slot >= 0 {
		t.Error("Victim bypass not honored")
	}
	if !c.Lookup(0) {
		t.Error("resident block evicted despite bypass")
	}
}

func TestWarmupFreezesStats(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(2, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWarmup(true)
	c.Access(Access{Block: 0})
	c.Access(Access{Block: 0})
	if st := c.Stats(); st.Accesses != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("warmup leaked into stats: %+v", st)
	}
	c.SetWarmup(false)
	if hit := c.Access(Access{Block: 0}); !hit {
		t.Error("warmup did not update cache contents")
	}
	if st := c.Stats(); st.Accesses != 1 || st.Hits != 1 {
		t.Errorf("post-warmup stats %+v", st)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Accesses: 200, Misses: 50}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
	if got := s.MPKI(100000); got != 0.5 {
		t.Errorf("MPKI = %v, want 0.5", got)
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats should produce zero rates")
	}
}

func TestEfficiency(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(1, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	// t=1 insert block 0; t=2..5 hit block 0; block 0 live 1..5.
	for i := 0; i < 5; i++ {
		c.Access(Access{Block: 0})
	}
	eff := c.Efficiency()
	if len(eff) != 1 || len(eff[0]) != 2 {
		t.Fatalf("efficiency shape %dx%d", len(eff), len(eff[0]))
	}
	if eff[0][0] <= 0.9 {
		t.Errorf("hot frame efficiency %v, want ~1", eff[0][0])
	}
	if eff[0][1] != 0 {
		t.Errorf("empty frame efficiency %v, want 0", eff[0][1])
	}
	if m := c.MeanEfficiency(); m <= 0.4 || m > 1 {
		t.Errorf("mean efficiency %v out of expected range", m)
	}
}

func TestEfficiencyDeadBlock(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(1, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	// Insert block 0 then never touch it again while time passes via
	// block-1 bypasses... block 1 maps to same set (1 set); it evicts.
	c.Access(Access{Block: 0}) // t=1 insert
	for i := 0; i < 9; i++ {
		c.Access(Access{Block: 0}) // t=2..10 live
	}
	c.Access(Access{Block: 1}) // t=11 evict block 0: generation live 1..10
	for i := 0; i < 89; i++ {
		c.Access(Access{Block: 2 + uint64(i)*1}) // keep evicting: dead frames
	}
	eff := c.Efficiency()[0][0]
	// Block 0 was live for 9 ticks of 100: each subsequent generation is
	// inserted and immediately evicted (live time 0), so efficiency ~0.09.
	if eff < 0.05 || eff > 0.2 {
		t.Errorf("efficiency %v, want ~0.09", eff)
	}
}

func TestReset(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(2, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(Access{Block: 0})
	c.Reset()
	if st := c.Stats(); st.Accesses != 0 {
		t.Errorf("stats after Reset: %+v", st)
	}
	if c.Lookup(0) {
		t.Error("contents survived Reset")
	}
	if len(p.calls) != 0 {
		t.Error("policy Reset not invoked")
	}
}

func TestLookupDoesNotTouch(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(2, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(Access{Block: 0})
	n := len(p.calls)
	if !c.Lookup(0) || c.Lookup(5) {
		t.Error("Lookup residency wrong")
	}
	if len(p.calls) != n {
		t.Error("Lookup invoked policy hooks")
	}
	if st := c.Stats(); st.Accesses != 1 {
		t.Error("Lookup counted as access")
	}
}

func TestAccessWithSlot(t *testing.T) {
	p := &scriptPolicy{}
	c, err := New(4, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	// Block 5 lands in set 1; a miss fills the lowest free way, a hit
	// reports the frame it found, and Find agrees with both.
	for i, want := range []struct {
		block uint64
		hit   bool
		slot  int
	}{{5, false, 2}, {9, false, 3}, {5, true, 2}, {13, false, 2}, {9, true, 3}} {
		hit, slot := AccessWith(c, Policy(p), Access{Block: want.block})
		if hit != want.hit || slot != want.slot {
			t.Fatalf("access %d (block %d): hit %v slot %d, want %v %d", i, want.block, hit, slot, want.hit, want.slot)
		}
		if f := c.Find(want.block); f != slot {
			t.Fatalf("access %d: Find(%d) = %d, want %d", i, want.block, f, slot)
		}
	}
	if c.Find(5) != -1 {
		t.Error("evicted block still found")
	}
	p.bypassNext = true
	if hit, slot := AccessWith(c, Policy(p), Access{Block: 17}); hit || slot != -1 {
		t.Errorf("bypass: hit %v slot %d, want false -1", hit, slot)
	}
}

func TestRecencyOrder(t *testing.T) {
	var r Recency
	r.Attach(2, 4)
	for w := 0; w < 4; w++ {
		r.Touch(1, w)
	}
	if got := r.LRU(1); got != 0 {
		t.Errorf("LRU = %d, want 0", got)
	}
	r.Touch(1, 0)
	if got := r.LRU(1); got != 1 {
		t.Errorf("LRU after touching way 0 = %d, want 1", got)
	}
	if r.Now() != 5 {
		t.Errorf("Now = %d, want 5", r.Now())
	}
	// Demote places way 3 below the set's oldest without a tick.
	r.Demote(1, 3)
	if got := r.LRU(1); got != 3 || r.Now() != 5 {
		t.Errorf("after Demote: LRU %d now %d, want 3 and 5", got, r.Now())
	}
	if ts := r.In(1); ts[3] >= ts[1] {
		t.Errorf("demoted timestamp %d not below way 1's %d", ts[3], ts[1])
	}
	// Set 0 was never touched: every way ties at 0, and the lowest wins.
	if got := r.LRU(0); got != 0 {
		t.Errorf("untouched set LRU = %d, want 0", got)
	}
	r.Demote(0, 2)
	if ts := r.In(0); ts[2] != 0 {
		t.Errorf("Demote in an untouched set = %d, want 0", ts[2])
	}
	r.Reset()
	if r.Now() != 0 || r.In(1)[0] != 0 {
		t.Error("Reset left timestamps")
	}
}
