package btb

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ghrpsim/internal/cache"
	"ghrpsim/internal/core"
	"ghrpsim/internal/policies"
)

// refBTB is the branch target buffer as it stood before it became a
// cache.Cache over instruction indices: its own PC-tagged scan, victim
// and bypass protocol, clocks and efficiency bookkeeping. It is kept
// here only as an oracle — BTB must match it decision for decision.
type refBTB struct {
	sets       int
	ways       int
	instrShift uint
	pcs        []uint64
	targets    []uint64
	valid      []uint64
	eff        []refEffTimes
	policy     cache.Policy
	stats      Stats
	now        uint64
	born       bool
	birth      uint64
}

type refEffTimes struct {
	insertAt  uint64
	lastUseAt uint64
	liveTime  uint64
}

func newRefBTB(sets, ways int, instrBytes uint64, p cache.Policy) *refBTB {
	shift := uint(0)
	for v := instrBytes; v > 1; v >>= 1 {
		shift++
	}
	p.Attach(sets, ways)
	return &refBTB{
		sets:       sets,
		ways:       ways,
		instrShift: shift,
		pcs:        make([]uint64, sets*ways),
		targets:    make([]uint64, sets*ways),
		valid:      make([]uint64, sets),
		eff:        make([]refEffTimes, sets*ways),
		policy:     p,
	}
}

func (b *refBTB) setIndex(pc uint64) int {
	return int((pc >> b.instrShift) & uint64(b.sets-1))
}

func (b *refBTB) key(pc uint64) uint64 { return pc >> b.instrShift }

func (b *refBTB) Lookup(pc uint64) (target uint64, hit bool) {
	set := b.setIndex(pc)
	base := set * b.ways
	for m := b.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if b.pcs[base+w] == pc {
			return b.targets[base+w], true
		}
	}
	return 0, false
}

func (b *refBTB) Access(pc, target uint64) (hit bool) {
	p := b.policy
	set := b.setIndex(pc)
	a := cache.Access{Block: b.key(pc), PC: pc, Set: set}
	b.now++
	if !b.born {
		b.born = true
		b.birth = b.now
	}
	b.stats.Accesses++

	base := set * b.ways
	vm := b.valid[set]
	for m := vm; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if b.pcs[base+w] == pc {
			b.stats.Hits++
			if b.targets[base+w] != target {
				b.stats.TargetMismatches++
			}
			b.targets[base+w] = target
			b.eff[base+w].lastUseAt = b.now
			p.OnHit(a, w)
			return true
		}
	}

	b.stats.Misses++
	if free := bits.TrailingZeros64(^vm); free < b.ways {
		if p.MayBypass(a) {
			b.stats.Bypasses++
			p.OnBypass(a)
			return false
		}
		b.install(a, free, pc, target)
		return false
	}
	way, bypass := p.Victim(a)
	if bypass {
		b.stats.Bypasses++
		p.OnBypass(a)
		return false
	}
	b.stats.Evictions++
	e := &b.eff[base+way]
	e.liveTime += e.lastUseAt - e.insertAt
	p.OnEvict(a, way, b.key(b.pcs[base+way]))
	b.install(a, way, pc, target)
	return false
}

func (b *refBTB) install(a cache.Access, way int, pc, target uint64) {
	i := a.Set*b.ways + way
	b.pcs[i] = pc
	b.targets[i] = target
	b.valid[a.Set] |= 1 << uint(way)
	b.eff[i].insertAt = b.now
	b.eff[i].lastUseAt = b.now
	b.policy.OnInsert(a, way)
}

func (b *refBTB) Efficiency() [][]float64 {
	out := make([][]float64, b.sets)
	elapsed := float64(0)
	if b.born && b.now > b.birth {
		elapsed = float64(b.now - b.birth)
	}
	for s := 0; s < b.sets; s++ {
		row := make([]float64, b.ways)
		for w := 0; w < b.ways; w++ {
			e := &b.eff[s*b.ways+w]
			live := e.liveTime
			if b.valid[s]&(1<<uint(w)) != 0 {
				live += e.lastUseAt - e.insertAt
			}
			if elapsed > 0 {
				row[w] = float64(live) / elapsed
				if row[w] > 1 {
					row[w] = 1
				}
			}
		}
		out[s] = row
	}
	return out
}

func (b *refBTB) Reset() {
	clear(b.pcs)
	clear(b.targets)
	clear(b.valid)
	clear(b.eff)
	b.stats = Stats{}
	b.now = 0
	b.birth = 0
	b.born = false
	b.policy.Reset()
}

// btbRefPolicies names every policy the BTB runs under. make builds one
// instance; the harness builds twins, one per BTB. GHRP adapters consult
// the shared I-cache policy ip.
var btbRefPolicies = []struct {
	name string
	make func(ip *core.ICachePolicy) cache.Policy
}{
	{"LRU", func(*core.ICachePolicy) cache.Policy { return policies.NewLRU() }},
	{"FIFO", func(*core.ICachePolicy) cache.Policy { return policies.NewFIFO() }},
	{"Random", func(*core.ICachePolicy) cache.Policy { return policies.NewRandom(7) }},
	{"SRRIP", func(*core.ICachePolicy) cache.Policy { return policies.NewSRRIP() }},
	{"SDBP", func(*core.ICachePolicy) cache.Policy {
		return policies.NewSDBPConfig(policies.SDBPConfig{TableBits: 4, DeadSum: 4, BypassSum: 6})
	}},
	{"SHiP", func(*core.ICachePolicy) cache.Policy { return policies.NewSHiP() }},
	{"DIP", func(*core.ICachePolicy) cache.Policy {
		return policies.NewDIPConfig(policies.DIPConfig{LeaderSets: 1, Epsilon: 4})
	}},
	{"GHRP", func(ip *core.ICachePolicy) cache.Policy {
		p, err := NewGHRPPolicy(ip, 1<<rigBlockShift)
		if err != nil {
			panic(err)
		}
		return p
	}},
}

// deadBits renders the prediction state a policy exposes for the entry
// of pc: GHRP's per-entry dead bits, SDBP's vote for pc's signature and
// DIP's selector.
func deadBits(p cache.Policy, pc uint64) string {
	switch p := p.(type) {
	case *GHRPPolicy:
		return fmt.Sprint(p.pred)
	case *policies.SDBP:
		return fmt.Sprint(p.PredictDead(pc))
	case *policies.DIP:
		return fmt.Sprint(p.UsingBIP())
	}
	return ""
}

// matchBTBReference drives a BTB and the reference, each under its own
// instance of policy pi, through one random stream: probes of
// instruction-aligned branches walked mostly in sequence, a quarter of
// them indirect with changing targets, read-only lookups, and
// occasional resets. Each probe first fetches the branch's block
// through a GHRP I-cache whose policy both GHRP adapters share. After
// every step the outcome, the looked-up target, the target slab, the
// statistics, the latest victim and the dead bits must agree; at the end, so must the
// efficiency matrices. It returns the reference's statistics summed
// over every reset, and whether a dead bit was ever set.
func matchBTBReference(t *testing.T, pi, sets, ways int, instrBytes uint64, seed int64, steps int) (total Stats, sawDead bool) {
	t.Helper()
	ip, err := core.NewICachePolicy(core.Config{TableBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := cache.New(rigSets, rigWays, ip)
	if err != nil {
		t.Fatal(err)
	}
	spec := btbRefPolicies[pi]
	gp, wp := spec.make(ip), spec.make(ip)
	gotTap, wantTap := &evictTap{Policy: gp}, &evictTap{Policy: wp}
	got, err := New(sets, ways, instrBytes, gotTap)
	if err != nil {
		t.Fatalf("New(%d, %d, %d): %v", sets, ways, instrBytes, err)
	}
	want := newRefBTB(sets, ways, instrBytes, wantTap)
	where := fmt.Sprintf("%s %dx%d/%dB seed %d", spec.name, sets, ways, instrBytes, seed)

	rng := rand.New(rand.NewSource(seed))
	// Three times the BTB's capacity in branches keeps hits, evictions
	// and bypass votes all frequent.
	n := 3 * sets * ways
	pcs, targets := make([]uint64, n), make([][]uint64, n)
	for i := range pcs {
		pcs[i] = (0x400 + uint64(rng.Intn(8*n))) * instrBytes
		targets[i] = []uint64{pcs[i] + instrBytes*uint64(1+rng.Intn(64))}
		if rng.Intn(4) == 0 {
			targets[i] = append(targets[i], pcs[i]^0x4000, pcs[i]+0x80)
		}
	}
	cur := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(1000); {
		case op < 850: // taken-branch probe
			if rng.Intn(3) == 0 {
				cur = rng.Intn(n)
			} else {
				cur = (cur + 1) % n
			}
			pc := pcs[cur]
			tgt := targets[cur][rng.Intn(len(targets[cur]))]
			ic.Access(cache.Access{Block: pc >> rigBlockShift, PC: pc})
			if g, w := got.Access(pc, tgt), want.Access(pc, tgt); g != w {
				t.Fatalf("%s step %d: access %#x hit %v, reference %v", where, step, pc, g, w)
			}
		case op < 990: // read-only lookup of any branch
			cur = rng.Intn(n)
		default:
			total = addStats(total, want.stats)
			got.Reset()
			want.Reset()
			if op >= 997 {
				ic.Reset()
			}
		}
		pc := pcs[cur]
		gt, gh := got.Lookup(pc)
		wt, wh := want.Lookup(pc)
		if gt != wt || gh != wh {
			t.Fatalf("%s step %d: Lookup(%#x) = %#x/%v, reference %#x/%v", where, step, pc, gt, gh, wt, wh)
		}
		// Both slabs are indexed by frame, so stale targets show too.
		if !slices.Equal(got.targets, want.targets) {
			t.Fatalf("%s step %d: targets %#x, reference %#x", where, step, got.targets, want.targets)
		}
		if g, w := got.Stats(), want.stats; g != w {
			t.Fatalf("%s step %d: stats %+v, reference %+v", where, step, g, w)
		}
		if gotTap.way != wantTap.way || gotTap.evicted != wantTap.evicted || gotTap.n != wantTap.n {
			t.Fatalf("%s step %d: victim %d/%#x (%d), reference %d/%#x (%d)", where, step,
				gotTap.way, gotTap.evicted, gotTap.n, wantTap.way, wantTap.evicted, wantTap.n)
		}
		if g, w := deadBits(gp, pc), deadBits(wp, pc); g != w {
			t.Fatalf("%s step %d: dead bits %s, reference %s", where, step, g, w)
		} else if strings.Contains(g, "true") {
			sawDead = true
		}
	}
	if g, w := got.Efficiency(), want.Efficiency(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: efficiency %v, reference %v", where, g, w)
	}
	return addStats(total, want.stats), sawDead
}

func addStats(a, b Stats) Stats {
	return Stats{
		Accesses:         a.Accesses + b.Accesses,
		Hits:             a.Hits + b.Hits,
		Misses:           a.Misses + b.Misses,
		Bypasses:         a.Bypasses + b.Bypasses,
		Evictions:        a.Evictions + b.Evictions,
		TargetMismatches: a.TargetMismatches + b.TargetMismatches,
	}
}

// TestBTBMatchesReference pins the BTB to the reference under every
// policy over a spread of geometries and instruction sizes, and checks
// that the streams reach hits, evictions, target changes and, under the
// predictive policies, bypasses and dead bits.
func TestBTBMatchesReference(t *testing.T) {
	geoms := []struct {
		sets, ways int
		instrBytes uint64
	}{{16, 2, 4}, {8, 4, 4}, {1, 4, 4}, {32, 1, 2}, {4, 8, 8}, {64, 3, 1}}
	for pi, spec := range btbRefPolicies {
		var total Stats
		var sawDead bool
		for _, g := range geoms {
			for seed := int64(1); seed <= 2; seed++ {
				s, d := matchBTBReference(t, pi, g.sets, g.ways, g.instrBytes, seed, 3000)
				total, sawDead = addStats(total, s), sawDead || d
			}
		}
		if total.Hits == 0 || total.Evictions == 0 || total.TargetMismatches == 0 {
			t.Errorf("%s: stream too tame: %+v", spec.name, total)
		}
		predictive := spec.name == "SDBP" || spec.name == "GHRP"
		if predictive && (total.Bypasses == 0 || !sawDead) {
			t.Errorf("%s: no bypass or dead bit: %+v, dead bit seen %v", spec.name, total, sawDead)
		}
	}
}

// FuzzBTBMatchesReference fuzzes the policy, the geometry, the
// instruction size and the stream seed; every combination must match
// the reference step for step.
func FuzzBTBMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(2), uint8(2), int64(1))
	f.Add(uint8(4), uint8(3), uint8(4), uint8(2), int64(2))
	f.Add(uint8(7), uint8(5), uint8(3), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, policy, setBits, ways, instrBits uint8, seed int64) {
		matchBTBReference(t, int(policy)%len(btbRefPolicies), 1<<(setBits%7), 1+int(ways%8),
			1<<(instrBits%4), seed, 1500)
	})
}
