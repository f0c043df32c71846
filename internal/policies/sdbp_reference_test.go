package policies

import (
	"fmt"
	"math/rand"
	"testing"

	"ghrpsim/internal/btb"
	"ghrpsim/internal/cache"
)

// refSDBP is modified SDBP as it stood before its lane was made cheaper:
// three [3][]int32 counter tables, a signature's indices recomputed on
// every sum and train, and the sampler an array of {tag, sig, valid}
// entries scanned way by way under timestamp LRU. It is kept here only
// as an oracle — SDBP must match it decision for decision.
type refSDBP struct {
	cfg    SDBPConfig
	sets   int
	ways   int
	rec    refRecency
	pred   []bool
	smp    []refSamplerEntry
	smpRec refRecency
	tables [3][]int32
	mask   uint32
}

type refSamplerEntry struct {
	tag   uint16
	sig   uint16
	valid bool
}

type refRecency struct {
	ways int
	last []uint64
	now  uint64
}

func (r *refRecency) attach(sets, ways int) {
	r.ways = ways
	r.last = make([]uint64, sets*ways)
	r.now = 0
}

func (r *refRecency) touch(set, way int) {
	r.now++
	r.last[set*r.ways+way] = r.now
}

func (r *refRecency) lru(set int) int {
	base := set * r.ways
	best, bestAt := 0, r.last[base]
	for w := 1; w < r.ways; w++ {
		if at := r.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best
}

func newRefSDBP(cfg SDBPConfig) *refSDBP {
	cfg = cfg.withDefaults()
	p := &refSDBP{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1}
	for t := range p.tables {
		p.tables[t] = make([]int32, 1<<cfg.TableBits)
	}
	return p
}

func (p *refSDBP) Name() string { return "SDBP" }

func (p *refSDBP) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.rec.attach(sets, ways)
	p.pred = make([]bool, sets*ways)
	p.smp = make([]refSamplerEntry, sets*ways)
	p.smpRec.attach(sets, ways)
}

func (p *refSDBP) signature(pc uint64) uint16 { return uint16((pc >> 2) & 0xFFF) }

func (p *refSDBP) indices(sig uint16) [3]uint32 {
	s := uint32(sig)
	return [3]uint32{
		s & p.mask,
		(s*0x9E37 + 0x79B9) & p.mask,
		(s*0x85EB + 0xCA6B) & p.mask,
	}
}

func (p *refSDBP) sum(sig uint16) int {
	idx := p.indices(sig)
	total := 0
	for t := range p.tables {
		total += int(p.tables[t][idx[t]])
	}
	return total
}

func (p *refSDBP) train(sig uint16, dead bool) {
	idx := p.indices(sig)
	for t := range p.tables {
		c := p.tables[t][idx[t]]
		if dead {
			if c < int32(p.cfg.CounterMax) {
				p.tables[t][idx[t]] = c + 1
			}
		} else if c > 0 {
			p.tables[t][idx[t]] = c - 1
		}
	}
}

func (p *refSDBP) sample(a cache.Access) {
	if p.cfg.SamplerSets != 0 && a.Set >= p.cfg.SamplerSets {
		return
	}
	base := a.Set * p.ways
	tag := uint16(a.Block & 0xFFFF)
	sig := p.signature(a.PC)
	for w := 0; w < p.ways; w++ {
		e := &p.smp[base+w]
		if e.valid && e.tag == tag {
			p.train(e.sig, false)
			e.sig = sig
			p.smpRec.touch(a.Set, w)
			return
		}
	}
	victim := p.smpRec.lru(a.Set)
	e := &p.smp[base+victim]
	if e.valid {
		p.train(e.sig, true)
	}
	*e = refSamplerEntry{tag: tag, sig: sig, valid: true}
	p.smpRec.touch(a.Set, victim)
}

func (p *refSDBP) OnHit(a cache.Access, way int) {
	p.sample(a)
	p.rec.touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.sum(p.signature(a.PC)) >= p.cfg.DeadSum
}

func (p *refSDBP) Victim(a cache.Access) (int, bool) {
	if p.MayBypass(a) {
		return 0, true
	}
	base := a.Set * p.ways
	deadWay := -1
	var deadAt uint64
	for w := 0; w < p.ways; w++ {
		if p.pred[base+w] {
			at := p.rec.last[base+w]
			if deadWay < 0 || at < deadAt {
				deadWay, deadAt = w, at
			}
		}
	}
	if deadWay >= 0 {
		return deadWay, false
	}
	return p.rec.lru(a.Set), false
}

func (p *refSDBP) MayBypass(a cache.Access) bool {
	return p.sum(p.signature(a.PC)) >= p.cfg.BypassSum
}

func (p *refSDBP) OnBypass(a cache.Access) { p.sample(a) }

func (p *refSDBP) OnInsert(a cache.Access, way int) {
	p.sample(a)
	p.rec.touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.sum(p.signature(a.PC)) >= p.cfg.DeadSum
}

func (p *refSDBP) OnEvict(a cache.Access, way int, evicted uint64) {}

func (p *refSDBP) Reset() {
	clear(p.rec.last)
	p.rec.now = 0
	clear(p.smpRec.last)
	p.smpRec.now = 0
	clear(p.pred)
	clear(p.smp)
	for t := range p.tables {
		clear(p.tables[t])
	}
}

// evictTap wraps a policy and records the victim of the latest
// eviction, so the harness compares victims as well as outcomes.
type evictTap struct {
	cache.Policy
	way     int
	evicted uint64
	n       uint64
}

func (e *evictTap) OnEvict(a cache.Access, way int, evicted uint64) {
	e.way, e.evicted = way, evicted
	e.n++
	e.Policy.OnEvict(a, way, evicted)
}

// sdbpRig is an I-cache and a BTB under SDBP, each with its own policy
// instance as in a simulator lane.
type sdbpRig struct {
	ic           *cache.Cache
	bt           *btb.BTB
	icTap, btTap *evictTap
}

func newSDBPRig(t *testing.T, sets, ways, btbSets, btbWays int, icp, btp cache.Policy) *sdbpRig {
	t.Helper()
	r := &sdbpRig{icTap: &evictTap{Policy: icp}, btTap: &evictTap{Policy: btp}}
	var err error
	if r.ic, err = cache.New(sets, ways, r.icTap); err != nil {
		t.Fatal(err)
	}
	if r.bt, err = btb.New(btbSets, btbWays, 4, r.btTap); err != nil {
		t.Fatal(err)
	}
	return r
}

// matchSDBPReference drives the simulator's SDBP and the reference
// through one random stream of steps over an I-cache and a BTB: demand
// fetches, BTB probes, wrong-path fetches (state changes that statistics
// do not count) and occasional resets. After every step the outcomes,
// victims, statistics and every frame's dead bit must agree, and so must
// the accessed signature's prediction.
func matchSDBPReference(t *testing.T, cfg SDBPConfig, ways int, seed int64, steps int) {
	t.Helper()
	const sets, btbSets, btbWays, blockShift = 8, 16, 2, 6
	icp, btp := NewSDBPConfig(cfg), NewSDBPConfig(cfg)
	ref, refB := newRefSDBP(cfg), newRefSDBP(cfg)
	got := newSDBPRig(t, sets, ways, btbSets, btbWays, icp, btp)
	want := newSDBPRig(t, sets, ways, btbSets, btbWays, ref, refB)

	rng := rand.New(rand.NewSource(seed))
	pool := make([]uint64, 3*sets*ways)
	for i := range pool {
		pool[i] = 0x1000 + uint64(rng.Intn(4*len(pool)))
	}
	block := pool[0]
	both := func(f func(r *sdbpRig) string) {
		t.Helper()
		if g, w := f(got), f(want); g != w {
			t.Fatalf("cfg %+v ways %d seed %d: got %s, reference %s", cfg, ways, seed, g, w)
		}
	}
	for step := 0; step < steps; step++ {
		var pc uint64
		switch op := rng.Intn(1000); {
		case op < 650: // demand fetch
			if rng.Intn(3) == 0 {
				block = pool[rng.Intn(len(pool))]
			} else {
				block++
			}
			pc = block<<blockShift | uint64(rng.Intn(16))*4
			both(func(r *sdbpRig) string {
				hit, slot := cache.AccessWith(r.ic, r.ic.Policy(), cache.Access{Block: block, PC: pc})
				return fmt.Sprintf("step %d fetch %#x: hit %v bypass %v", step, pc, hit, slot < 0)
			})
		case op < 900: // BTB probe
			b := block
			if rng.Intn(5) == 0 {
				b = pool[rng.Intn(len(pool))]
			}
			pc = b<<blockShift | uint64(rng.Intn(16))*4
			target := pc ^ uint64(rng.Intn(2))<<9
			both(func(r *sdbpRig) string {
				return fmt.Sprintf("step %d BTB %#x: hit %v", step, pc, r.bt.Access(pc, target))
			})
		case op < 998: // wrong-path fetch
			wrong := pool[rng.Intn(len(pool))]
			depth := 1 + rng.Intn(4)
			pc = wrong << blockShift
			both(func(r *sdbpRig) string {
				r.ic.SetWarmup(true)
				s := fmt.Sprintf("step %d wrong path %#x:", step, wrong)
				for i := 0; i < depth; i++ {
					b := wrong + uint64(i)
					hit, slot := cache.AccessWith(r.ic, r.ic.Policy(), cache.Access{Block: b, PC: b << blockShift})
					s += fmt.Sprintf(" %v/%v", hit, slot < 0)
				}
				r.ic.SetWarmup(false)
				return s
			})
		default:
			both(func(r *sdbpRig) string {
				r.ic.Reset()
				r.bt.Reset()
				return "reset"
			})
		}
		both(func(r *sdbpRig) string {
			return fmt.Sprintf("step %d: I-cache %+v, BTB %+v, I-cache victim %d/%#x (%d), BTB victim %d/%#x (%d)",
				step, r.ic.Stats(), r.bt.Stats(),
				r.icTap.way, r.icTap.evicted, r.icTap.n, r.btTap.way, r.btTap.evicted, r.btTap.n)
		})
		for _, pair := range [2][2]any{{icp, ref}, {btp, refB}} {
			p, rp := pair[0].(*SDBP), pair[1].(*refSDBP)
			for f, d := range rp.pred {
				if p.pred[f] != d {
					t.Fatalf("cfg %+v ways %d seed %d step %d: frame %d dead bit %v, reference %v", cfg, ways, seed, step, f, p.pred[f], d)
				}
			}
			if g, w := p.PredictDead(pc), rp.sum(rp.signature(pc)) >= rp.cfg.DeadSum; g != w {
				t.Fatalf("cfg %+v ways %d seed %d step %d: PredictDead(%#x) %v, reference %v", cfg, ways, seed, step, pc, g, w)
			}
		}
	}
}

// sdbpReferenceConfigs span table sizes, counter widths, thresholds that
// make dead predictions and bypasses common, and set-sampling.
var sdbpReferenceConfigs = []SDBPConfig{
	{},
	{DeadSum: 6, BypassSum: 1 << 20},
	{TableBits: 3, CounterMax: 3, DeadSum: 4, BypassSum: 7},
	{TableBits: 1, CounterMax: 1, DeadSum: 1, BypassSum: 3},
	{TableBits: 5, DeadSum: 20, BypassSum: 60, SamplerSets: 3},
	{TableBits: 14, CounterMax: 255, DeadSum: 2, BypassSum: 500},
	{TableBits: 4, CounterMax: 200, DeadSum: 5, BypassSum: 9, SamplerSets: 100},
}

// TestSDBPMatchesReference pins SDBP to the reference across
// sdbpReferenceConfigs at associativities 1, 4 and 16.
func TestSDBPMatchesReference(t *testing.T) {
	for _, cfg := range sdbpReferenceConfigs {
		for _, ways := range []int{1, 4, 16} {
			for seed := int64(1); seed <= 2; seed++ {
				matchSDBPReference(t, cfg, ways, seed, 4000)
			}
		}
	}
}

// FuzzSDBPMatchesReference fuzzes the configuration, the associativity
// and the stream seed; every configuration Validate accepts must match
// the reference step for step.
func FuzzSDBPMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0), uint16(0), uint8(0), uint8(4), int64(1))
	f.Add(uint8(3), uint8(3), uint16(4), uint16(7), uint8(0), uint8(2), int64(2))
	f.Add(uint8(1), uint8(1), uint16(1), uint16(3), uint8(3), uint8(8), int64(3))
	f.Fuzz(func(t *testing.T, tableBits, counterMax uint8, deadSum, bypassSum uint16, samplerSets, ways uint8, seed int64) {
		cfg := SDBPConfig{
			TableBits:   int(tableBits % 17),
			CounterMax:  int(counterMax),
			DeadSum:     int(deadSum),
			BypassSum:   int(bypassSum),
			SamplerSets: int(samplerSets % 10),
		}
		if cfg.Validate() != nil {
			return
		}
		matchSDBPReference(t, cfg, 1+int(ways%16), seed, 1500)
	})
}
