package btb

import (
	"fmt"
	"math/rand"
	"testing"

	"ghrpsim/internal/cache"
	"ghrpsim/internal/core"
)

// The types below are GHRP as it stood before the lanes were made
// cheaper: the history register recomputing its masks on every step, the
// predictor hashing a signature's table indices afresh on every predict
// and train, the I-cache policy keeping only the signature in each
// frame's metadata, and the BTB adapter scanning the I-cache set for
// every probe. They are kept here only as an oracle — core.ICachePolicy
// and GHRPPolicy must match them decision for decision.

type refHistory struct {
	spec    uint16
	retired uint16
	cfg     core.Config
}

func (h *refHistory) step(reg uint16, pc uint64) uint16 {
	shifted := uint32(reg) << h.cfg.ShiftPerAccess
	pcBits := h.cfg.PCBitsPerAccess
	if pcBits < 0 {
		pcBits = 0
	}
	bits := uint32(core.PCFold(pc)) & (1<<pcBits - 1)
	return uint16((shifted | bits<<1) & (1<<h.cfg.HistoryBits - 1))
}

func (h *refHistory) Update(pc uint64) { h.spec = h.step(h.spec, pc) }
func (h *refHistory) Commit(pc uint64) { h.retired = h.step(h.retired, pc) }
func (h *refHistory) Recover()         { h.spec = h.retired }

func (h *refHistory) Signature(pc uint64) uint16 {
	mask := uint64(1)<<h.cfg.HistoryBits - 1
	return uint16((uint64(h.spec) ^ pc) & mask)
}

var refSkewMultipliers = [...]uint32{
	0x9E3779B1,
	0x85EBCA77,
	0xC2B2AE3D,
	0x27D4EB2F,
	0x165667B1,
	0xD3A2646D,
	0xFD7046C5,
}

type refPredictor struct {
	cfg    core.Config
	tables []uint8
	mask   uint32
	stats  core.PredictorStats
}

func newRefPredictor(cfg core.Config) *refPredictor {
	cfg = cfg.WithDefaults()
	p := &refPredictor{cfg: cfg, mask: uint32(1)<<cfg.TableBits - 1}
	p.tables = make([]uint8, cfg.NumTables<<cfg.TableBits)
	return p
}

func (p *refPredictor) indicesInto(sig uint16, idx []uint32) {
	s := uint32(sig)
	for t := range idx {
		h := s * refSkewMultipliers[t%len(refSkewMultipliers)]
		h ^= h >> uint32(p.cfg.TableBits)
		idx[t] = h & p.mask
	}
}

func (p *refPredictor) Predict(sig uint16, threshold int) bool {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	tb := uint(p.cfg.TableBits)
	deadVotes, sum := 0, 0
	for t := range ix {
		c := int(p.tables[uint32(t)<<tb|ix[t]])
		sum += c
		if c >= threshold {
			deadVotes++
		}
	}
	var dead bool
	if p.cfg.Aggregation == core.Summation {
		dead = sum >= threshold*p.cfg.NumTables
	} else {
		dead = 2*deadVotes > p.cfg.NumTables
	}
	if dead {
		p.stats.DeadPredictions++
	} else {
		p.stats.LivePredictions++
	}
	return dead
}

func (p *refPredictor) PredictUnanimous(sig uint16, threshold int) bool {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	tb := uint(p.cfg.TableBits)
	for t := range ix {
		if int(p.tables[uint32(t)<<tb|ix[t]]) < threshold {
			p.stats.LivePredictions++
			return false
		}
	}
	p.stats.DeadPredictions++
	return true
}

func (p *refPredictor) Train(sig uint16, dead bool) {
	var idx [8]uint32
	ix := idx[:p.cfg.NumTables]
	p.indicesInto(sig, ix)
	if dead {
		p.stats.DeadTrainings++
	} else {
		p.stats.LiveTrainings++
	}
	tb := uint(p.cfg.TableBits)
	for t := range ix {
		off := uint32(t)<<tb | ix[t]
		c := p.tables[off]
		if dead {
			if int(c) < p.cfg.CounterMax {
				p.tables[off] = c + 1
			}
		} else if c > 0 {
			p.tables[off] = c - 1
		}
	}
}

func (p *refPredictor) Reset() {
	clear(p.tables)
	p.stats = core.PredictorStats{}
}

type refBlockMeta struct {
	block  uint64
	sig    uint16
	dead   bool
	valid  bool
	reused bool
}

type refICachePolicy struct {
	cfg           core.Config
	pred          *refPredictor
	hist          *refHistory
	ways, sets    int
	meta          []refBlockMeta
	last          []uint64
	now           uint64
	bypassTick    uint64
	cutSet        int
	cutNow        uint64
	cutVal        uint64
	deadEvictions uint64
	lruEvictions  uint64
}

func newRefICachePolicy(cfg core.Config) *refICachePolicy {
	pred := newRefPredictor(cfg)
	return &refICachePolicy{cfg: pred.cfg, pred: pred, hist: &refHistory{cfg: cfg.WithDefaults()}}
}

func (p *refICachePolicy) Name() string { return "GHRP" }

func (p *refICachePolicy) Attach(sets, ways int) {
	p.sets, p.ways = sets, ways
	p.meta = make([]refBlockMeta, sets*ways)
	p.last = make([]uint64, sets*ways)
	p.now = 0
}

func (p *refICachePolicy) touch(set, way int) {
	p.now++
	p.last[set*p.ways+way] = p.now
}

func (p *refICachePolicy) lru(set int) int {
	base := set * p.ways
	best, bestAt := 0, p.last[base]
	for w := 1; w < p.ways; w++ {
		if at := p.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best
}

func (p *refICachePolicy) OnHit(a cache.Access, way int) {
	m := &p.meta[a.Set*p.ways+way]
	if m.valid {
		p.pred.Train(m.sig, false)
	}
	sig := p.hist.Signature(a.PC)
	m.block = a.Block
	m.sig = sig
	m.dead = p.pred.Predict(sig, p.cfg.DeadThreshold)
	m.valid = true
	m.reused = true
	p.touch(a.Set, way)
	p.hist.Update(a.PC)
}

func (p *refICachePolicy) Victim(a cache.Access) (int, bool) {
	if p.MayBypass(a) {
		return 0, true
	}
	base := a.Set * p.ways
	cut := p.recencyCutoff(a.Set)
	deadWay, deadAt := -1, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if p.meta[base+w].valid && p.meta[base+w].dead &&
			p.last[base+w] <= cut && p.last[base+w] < deadAt {
			deadWay, deadAt = w, p.last[base+w]
		}
	}
	if deadWay >= 0 {
		p.deadEvictions++
		return deadWay, false
	}
	p.lruEvictions++
	return p.lru(a.Set), false
}

func (p *refICachePolicy) recencyCutoff(set int) uint64 {
	if p.cutNow == p.now && p.cutSet == set && p.now != 0 {
		return p.cutVal
	}
	base := set * p.ways
	var ts [16]uint64
	n := p.ways
	if n > len(ts) {
		n = len(ts)
	}
	copy(ts[:n], p.last[base:base+n])
	for i := 1; i < n; i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	p.cutSet, p.cutNow, p.cutVal = set, p.now, ts[(n-1)/2]
	return p.cutVal
}

func (p *refICachePolicy) MayBypass(a cache.Access) bool {
	if p.cfg.DisableBypass {
		return false
	}
	if !p.pred.PredictUnanimous(p.hist.Signature(a.PC), p.cfg.BypassThreshold) {
		return false
	}
	if p.cfg.BypassEscapeShift >= 0 {
		p.bypassTick++
		if p.bypassTick&(1<<p.cfg.BypassEscapeShift-1) == 0 {
			return false
		}
	}
	return true
}

func (p *refICachePolicy) OnBypass(a cache.Access) { p.hist.Update(a.PC) }

func (p *refICachePolicy) OnEvict(a cache.Access, way int, evicted uint64) {
	m := &p.meta[a.Set*p.ways+way]
	if !m.valid {
		return
	}
	train := false
	switch p.cfg.DeadTraining {
	case core.TrainAllEvictions:
		train = true
	case core.TrainLRUOnly:
		train = way == p.lru(a.Set)
	case core.TrainZeroReuseLRU:
		train = !m.reused && way == p.lru(a.Set)
	default:
		train = p.last[a.Set*p.ways+way] <= p.recencyCutoff(a.Set)
	}
	if train {
		p.pred.Train(m.sig, true)
	}
}

func (p *refICachePolicy) OnInsert(a cache.Access, way int) {
	sig := p.hist.Signature(a.PC)
	m := &p.meta[a.Set*p.ways+way]
	m.block = a.Block
	m.sig = sig
	m.dead = p.pred.Predict(sig, p.cfg.DeadThreshold)
	m.valid = true
	m.reused = false
	p.touch(a.Set, way)
	p.hist.Update(a.PC)
}

func (p *refICachePolicy) Reset() {
	clear(p.meta)
	clear(p.last)
	p.now = 0
	p.pred.Reset()
	p.hist.spec, p.hist.retired = 0, 0
	p.bypassTick = 0
	p.deadEvictions = 0
	p.lruEvictions = 0
	p.cutSet, p.cutNow, p.cutVal = 0, 0, 0
}

func (p *refICachePolicy) BlockPrediction(block uint64, threshold int) (dead, ok bool) {
	if p.sets == 0 {
		return false, false
	}
	set := int(block & uint64(p.sets-1))
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		m := &p.meta[base+w]
		if m.valid && m.block == block {
			return p.pred.Predict(m.sig, threshold), true
		}
	}
	return false, false
}

type refGHRPPolicy struct {
	icache        *refICachePolicy
	cfg           core.Config
	blockShift    uint
	ways          int
	pred          []bool
	last          []uint64
	now           uint64
	deadEvictions uint64
	lruEvictions  uint64
}

func (p *refGHRPPolicy) Name() string { return "GHRP" }

func (p *refGHRPPolicy) Attach(sets, ways int) {
	p.ways = ways
	p.pred = make([]bool, sets*ways)
	p.last = make([]uint64, sets*ways)
	p.now = 0
}

func (p *refGHRPPolicy) touch(set, way int) {
	p.now++
	p.last[set*p.ways+way] = p.now
}

func (p *refGHRPPolicy) lru(set int) int {
	base := set * p.ways
	best, bestAt := 0, p.last[base]
	for w := 1; w < p.ways; w++ {
		if at := p.last[base+w]; at < bestAt {
			best, bestAt = w, at
		}
	}
	return best
}

func (p *refGHRPPolicy) predictDead(a cache.Access, threshold int) bool {
	dead, ok := p.icache.BlockPrediction(a.PC>>p.blockShift, threshold)
	return ok && dead
}

func (p *refGHRPPolicy) OnHit(a cache.Access, way int) {
	p.touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.predictDead(a, p.cfg.BTBDeadThreshold)
}

func (p *refGHRPPolicy) Victim(a cache.Access) (int, bool) {
	if p.MayBypass(a) {
		return 0, true
	}
	base := a.Set * p.ways
	deadWay, deadAt := -1, ^uint64(0)
	for w := 0; w < p.ways; w++ {
		if p.pred[base+w] && p.last[base+w] < deadAt {
			deadWay, deadAt = w, p.last[base+w]
		}
	}
	if deadWay >= 0 {
		p.deadEvictions++
		return deadWay, false
	}
	p.lruEvictions++
	return p.lru(a.Set), false
}

func (p *refGHRPPolicy) MayBypass(a cache.Access) bool {
	if p.cfg.DisableBypass {
		return false
	}
	return p.predictDead(a, p.cfg.BypassThreshold)
}

func (p *refGHRPPolicy) OnBypass(a cache.Access) {}

func (p *refGHRPPolicy) OnInsert(a cache.Access, way int) {
	p.touch(a.Set, way)
	p.pred[a.Set*p.ways+way] = p.predictDead(a, p.cfg.BTBDeadThreshold)
}

func (p *refGHRPPolicy) OnEvict(a cache.Access, way int, evicted uint64) {}

func (p *refGHRPPolicy) Reset() {
	clear(p.pred)
	clear(p.last)
	p.now = 0
	p.deadEvictions = 0
	p.lruEvictions = 0
}

// evictTap wraps a policy and records the victim of the latest
// eviction, so a harness can compare victims as well as outcomes.
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

// ghrpRig is one I-cache and BTB pair under GHRP, either the reference
// or the simulator's own, with the taps that observe their victims.
type ghrpRig struct {
	ic        *cache.Cache
	bt        *BTB
	icTap     *evictTap
	btTap     *evictTap
	commit    func(pc uint64)
	recover   func()
	histories func() (spec, retired uint16)
}

const (
	rigSets, rigWays       = 8, 4
	rigBTBSets, rigBTBWays = 16, 2
	rigBlockShift          = 6
)

func newRig(t *testing.T, icp, btp cache.Policy) *ghrpRig {
	t.Helper()
	r := &ghrpRig{icTap: &evictTap{Policy: icp}, btTap: &evictTap{Policy: btp}}
	var err error
	if r.ic, err = cache.New(rigSets, rigWays, r.icTap); err != nil {
		t.Fatal(err)
	}
	if r.bt, err = New(rigBTBSets, rigBTBWays, 4, r.btTap); err != nil {
		t.Fatal(err)
	}
	return r
}

// matchGHRPReference drives the simulator's GHRP pair and the reference
// through one random stream of steps: demand I-cache accesses (each
// committing its PC to the retired history, as the simulator's lanes
// do), BTB probes mostly from the block fetched last, wrong-path fetch
// that pollutes the cache and the speculative history and then recovers
// it, and occasional resets. After every step the outcomes, victims,
// prediction bits, history registers and all statistics must agree.
func matchGHRPReference(t *testing.T, cfg core.Config, seed int64, steps int) {
	t.Helper()
	icp, err := core.NewICachePolicy(cfg)
	if err != nil {
		t.Fatalf("NewICachePolicy(%+v): %v", cfg, err)
	}
	btp, err := NewGHRPPolicy(icp, 1<<rigBlockShift)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefICachePolicy(cfg)
	refB := &refGHRPPolicy{icache: ref, cfg: ref.cfg, blockShift: rigBlockShift}
	got, want := newRig(t, icp, btp), newRig(t, ref, refB)
	got.commit, got.recover = icp.History().Commit, icp.History().Recover
	got.histories = func() (uint16, uint16) { return icp.History().Current(), icp.History().Retired() }
	want.commit, want.recover = ref.hist.Commit, ref.hist.Recover
	want.histories = func() (uint16, uint16) { return ref.hist.spec, ref.hist.retired }

	rng := rand.New(rand.NewSource(seed))
	// A pool of hot blocks three times the cache's capacity, walked in
	// short sequential runs, keeps hits, evictions and repeating
	// signatures all frequent.
	pool := make([]uint64, 3*rigSets*rigWays)
	for i := range pool {
		pool[i] = 0x1000 + uint64(rng.Intn(4*len(pool)))
	}
	block := pool[0]
	both := func(f func(r *ghrpRig) string) {
		t.Helper()
		if g, w := f(got), f(want); g != w {
			t.Fatalf("cfg %+v seed %d: got %s, reference %s", cfg, seed, g, w)
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(1000); {
		case op < 650: // demand fetch
			if rng.Intn(3) == 0 {
				block = pool[rng.Intn(len(pool))]
			} else {
				block++
			}
			pc := block<<rigBlockShift | uint64(rng.Intn(16))*4
			both(func(r *ghrpRig) string {
				hit, slot := cache.AccessWith(r.ic, r.ic.Policy(), cache.Access{Block: block, PC: pc})
				r.commit(pc)
				return fmt.Sprintf("step %d fetch %#x: hit %v bypass %v", step, pc, hit, slot < 0)
			})
		case op < 900: // BTB probe, usually a branch in the block just fetched
			b := block
			if rng.Intn(5) == 0 {
				b = pool[rng.Intn(len(pool))]
			}
			pc := b<<rigBlockShift | uint64(rng.Intn(16))*4
			target := pc ^ uint64(rng.Intn(2))<<9
			both(func(r *ghrpRig) string {
				return fmt.Sprintf("step %d BTB %#x: hit %v", step, pc, r.bt.Access(pc, target))
			})
		case op < 998: // wrong-path fetch, then history recovery
			wrong := pool[rng.Intn(len(pool))]
			depth := 1 + rng.Intn(4)
			recover := rng.Intn(4) != 0
			both(func(r *ghrpRig) string {
				r.ic.SetWarmup(true)
				s := fmt.Sprintf("step %d wrong path %#x:", step, wrong)
				for i := 0; i < depth; i++ {
					b := wrong + uint64(i)
					hit, slot := cache.AccessWith(r.ic, r.ic.Policy(), cache.Access{Block: b, PC: b << rigBlockShift})
					s += fmt.Sprintf(" %v/%v", hit, slot < 0)
				}
				r.ic.SetWarmup(false)
				if recover {
					r.recover()
				}
				return s
			})
		default:
			both(func(r *ghrpRig) string {
				r.ic.Reset()
				r.bt.Reset()
				return "reset"
			})
		}
		both(func(r *ghrpRig) string {
			spec, retired := r.histories()
			return fmt.Sprintf("step %d: history %#x/%#x, I-cache %+v, BTB %+v, I-cache victim %d/%#x (%d), BTB victim %d/%#x (%d)",
				step, spec, retired, r.ic.Stats(), r.bt.Stats(),
				r.icTap.way, r.icTap.evicted, r.icTap.n, r.btTap.way, r.btTap.evicted, r.btTap.n)
		})
		if g, w := icp.Predictor().Stats(), ref.pred.stats; g != w {
			t.Fatalf("cfg %+v seed %d step %d: predictor stats %+v, reference %+v", cfg, seed, step, g, w)
		}
		gd, gl := icp.EvictionBreakdown()
		bd, bl := btp.EvictionBreakdown()
		if gd != ref.deadEvictions || gl != ref.lruEvictions || bd != refB.deadEvictions || bl != refB.lruEvictions {
			t.Fatalf("cfg %+v seed %d step %d: eviction breakdowns I-cache %d/%d BTB %d/%d, reference %d/%d and %d/%d",
				cfg, seed, step, gd, gl, bd, bl, ref.deadEvictions, ref.lruEvictions, refB.deadEvictions, refB.lruEvictions)
		}
		for f := range ref.meta {
			m := &ref.meta[f]
			if d := icp.PredictedDead(f/rigWays, f%rigWays); d != (m.valid && m.dead) {
				t.Fatalf("cfg %+v seed %d step %d: I-cache frame %d dead bit %v, reference %v", cfg, seed, step, f, d, m.valid && m.dead)
			}
		}
		for f, d := range refB.pred {
			if btp.pred[f] != d {
				t.Fatalf("cfg %+v seed %d step %d: BTB entry %d dead bit %v, reference %v", cfg, seed, step, f, btp.pred[f], d)
			}
		}
	}
}

// ghrpReferenceConfigs span the predictor's geometry and every training
// and aggregation mode. Small tables alias heavily, so counters saturate
// and the dead paths — bypass, dead-predicted victims, dead BTB bits —
// all run.
var ghrpReferenceConfigs = []core.Config{
	{},
	{TableBits: 3},
	{TableBits: 4, NumTables: 7, DeadThreshold: 1, BypassThreshold: 2, BTBDeadThreshold: 1},
	{TableBits: 2, NumTables: 1, Aggregation: core.Summation},
	{TableBits: 3, NumTables: 4, CounterMax: 7, DeadThreshold: 3, BypassThreshold: 5, BTBDeadThreshold: 2, DeadTraining: core.TrainAllEvictions},
	{TableBits: 5, NumTables: 2, DeadTraining: core.TrainLRUOnly, BypassEscapeShift: -1},
	{TableBits: 3, NumTables: 5, DeadTraining: core.TrainZeroReuseLRU, Aggregation: core.Summation, CounterMax: 255, DeadThreshold: 1, BypassThreshold: 200, BTBDeadThreshold: 9},
	{TableBits: 4, DisableBypass: true, PCBitsPerAccess: -1},
	{TableBits: 16, HistoryBits: 12, ShiftPerAccess: 3, PCBitsPerAccess: 2},
}

// TestGHRPMatchesReference pins the GHRP I-cache policy and BTB adapter
// to the reference across ghrpReferenceConfigs.
func TestGHRPMatchesReference(t *testing.T) {
	for _, cfg := range ghrpReferenceConfigs {
		for seed := int64(1); seed <= 3; seed++ {
			matchGHRPReference(t, cfg, seed, 4000)
		}
	}
}

// FuzzGHRPMatchesReference fuzzes the predictor configuration and the
// stream seed; every configuration Validate accepts must match the
// reference step for step.
func FuzzGHRPMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(2), uint8(1), uint8(0), int64(2))
	f.Add(uint8(4), uint8(7), uint8(7), uint8(1), uint8(3), uint8(6), int64(3))
	f.Fuzz(func(t *testing.T, tableBits, numTables, counterMax, dead, mode, flags uint8, seed int64) {
		cm := int(counterMax)
		cfg := core.Config{
			TableBits:         int(tableBits % 17),
			NumTables:         int(numTables % 8),
			CounterMax:        cm,
			DeadThreshold:     int(dead),
			BypassThreshold:   int(dead) + int(flags>>4),
			BTBDeadThreshold:  int(dead) + int(flags>>6),
			Aggregation:       core.Aggregation(mode & 1),
			DeadTraining:      core.DeadTrainingMode(mode >> 1 & 3),
			DisableBypass:     flags&1 != 0,
			BypassEscapeShift: int(flags>>1&3) - 1,
		}
		if cfg.WithDefaults().Validate() != nil {
			return
		}
		matchGHRPReference(t, cfg, seed, 1500)
	})
}
