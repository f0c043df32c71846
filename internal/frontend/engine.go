package frontend

import (
	"fmt"

	"ghrpsim/internal/btb"
	"ghrpsim/internal/cache"
	"ghrpsim/internal/core"
	"ghrpsim/internal/indirect"
	"ghrpsim/internal/perceptron"
	"ghrpsim/internal/policies"
	"ghrpsim/internal/trace"
)

// Result reports one simulation's outcome. MPKI values use the counted
// (post-warm-up) instruction window, matching the paper's methodology.
type Result struct {
	Policy            PolicyKind
	TotalInstructions uint64
	CountedInstrs     uint64
	Records           uint64
	ICache            cache.Stats
	BTB               btb.Stats
	Branch            perceptron.Stats
	RAS               RASStats
	Indirect          indirect.Stats
	Prefetch          PrefetchStats
}

// ICacheMPKI is the I-cache misses per 1000 counted instructions.
func (r Result) ICacheMPKI() float64 { return r.ICache.MPKI(r.CountedInstrs) }

// BTBMPKI is the BTB misses per 1000 counted instructions.
func (r Result) BTBMPKI() float64 { return r.BTB.MPKI(r.CountedInstrs) }

// BranchMPKI is conditional mispredictions per 1000 counted instructions.
func (r Result) BranchMPKI() float64 { return r.Branch.MPKI(r.CountedInstrs) }

// The simulator is split along the policy axis so N policies can replay
// one stream in lockstep (see FanOut): front holds everything whose
// evolution is independent of the replacement policy — the direction
// predictor, RAS, indirect predictor, fetch reconstruction, fetch-buffer
// coalescing, wrong-path decisions, and the instruction/warm-up
// accounting — while lane holds the per-policy structures the paper
// compares: the I-cache, the BTB, and (for GHRP) their shared predictor.
// None of the front's components observe cache or BTB state, which is
// what makes driving N lanes from one front bit-identical to N
// one-lane replays: each lane sees exactly the access, injection and
// warm-up sequence it would have derived on its own.
//
// The split is made explicit by decision chunks (chunk.go):
// front.decide distills one record straight into a chunk as the four
// lane-facing operations (coalesced I-cache accesses, optional
// wrong-path injection, optional BTB probe, optional warm-up flip), and
// each lane replays a chunk through a body specialized to its concrete
// policy types. Because the serial and the checkpoint-parallel paths
// replay the same chunks through the same body, they cannot diverge.

// front is the policy-independent half of the simulator.
type front struct {
	cfg     Config
	bpred   *perceptron.Predictor
	ras     *RAS
	ind     *indirect.Predictor
	fetcher *trace.Fetcher

	blockShift  uint
	instrShift  uint
	warmupLimit uint64
	warm        bool // true while warming up
	instrs      uint64
	counted     uint64
	records     uint64
	lastBlock   uint64 // fetch buffer: last I-cache line touched
	haveLast    bool

	branch perceptron.Outcome // scratch: current conditional branch's prediction
}

// newFront allocates the front's predictors and fetcher. Its warm-up
// state is set by reset, which every construction path calls next.
func newFront(cfg Config) (*front, error) {
	f := &front{cfg: cfg}
	f.blockShift = shiftOf(uint64(cfg.ICache.BlockBytes))
	f.instrShift = shiftOf(cfg.InstrBytes)
	var err error
	f.bpred, err = perceptron.New(cfg.Branch)
	if err != nil {
		return nil, err
	}
	f.fetcher, err = trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return nil, err
	}
	f.ras = NewRAS(32)
	f.ind, err = indirect.New(indirect.Config{})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// reset puts the front in the state a simulation starts from: predictor
// tables, histories, RAS and fetcher cleared, counters and the fetch
// buffer zeroed, and warm-up armed when warmupLimit is positive. Every
// table keeps its storage.
//
//ghrp:hotpath
func (f *front) reset(warmupLimit uint64) {
	f.bpred.Reset()
	f.ras.Reset()
	f.ind.Reset()
	f.fetcher.Reset()
	f.warmupLimit = warmupLimit
	f.warm = warmupLimit > 0
	f.instrs, f.counted, f.records = 0, 0, 0
	f.lastBlock, f.haveLast = 0, false
	f.branch = perceptron.Outcome{}
}

// decide advances the front by one branch record and appends its
// lane-facing decisions to ch, which must not be full. It touches no
// lane state; the lanes replay the record once ch is replayed.
//
//ghrp:hotpath
func (f *front) decide(r trace.Record, ch *decChunk) {
	f.records++
	preWarm := f.warm
	var d decRec
	if preWarm {
		d.flags = chunkWarm
	}

	// Fetch-group reconstruction: each distinct block is one I-cache
	// access whose PC is the first instruction fetched in that block.
	// Fetch-buffer coalescing drops consecutive fetch groups from the
	// same cache line (sequential fall-through past a not-taken branch,
	// or a short taken branch within the line): they read the fetch
	// buffer, not the I-cache. Without this, dense basic blocks would
	// count several I-cache accesses per line and streaming lines would
	// look "reused". Blocks within a group are distinct and ascending,
	// so only its first block can repeat the previous access. The
	// coalesced access list is policy-independent, so it is computed
	// once, appended to the chunk's pool, and applied to every lane.
	startPC := f.fetcher.PC()
	g := f.fetcher.Advance(r)
	acc := ch.accesses
	d.accOff = uint32(len(acc))
	b := g.First
	if f.haveLast && b == f.lastBlock {
		b++
	}
	if b <= g.Last {
		pc := b << f.blockShift
		// A mid-block fetch begins at the branch target, not the block
		// base; signatures must see the real entry point.
		if startPC == 0 {
			pc = r.PC
		} else if startPC>>f.blockShift == b {
			pc = startPC
		}
		for {
			//ghrplint:ignore hotalloc chunk buffers keep their capacity across resets; a grow can happen only the first few chunks of a run (access lists denser than the 2x-records presize), after which decide is allocation-free — TestStreamingAllocsBounded pins the steady state
			acc = append(acc, blockAccess{block: b, pc: pc})
			if b == g.Last {
				break
			}
			b++
			pc = b << f.blockShift
		}
		f.lastBlock, f.haveLast = g.Last, true
	}
	ch.accesses = acc
	d.accLen = uint32(len(acc)) - d.accOff
	f.instrs += g.Instrs
	if !f.warm {
		f.counted += g.Instrs
	}

	// Direction prediction for conditional branches; other transfers
	// contribute to path history only.
	if r.Type.Conditional() {
		f.bpred.PredictInto(&f.branch, r.PC)
		mispredicted := f.branch.Taken != r.Taken
		f.bpred.UpdateFrom(&f.branch, r.PC, r.Taken)
		if mispredicted && f.cfg.WrongPath != WrongPathOff {
			// Wrong-path fetch after a misprediction (§III-F): a few
			// sequential blocks from the not-executed path. The lanes
			// derive the block list from the wrong-path PC.
			d.flags |= chunkInject
			if r.Taken {
				d.wrongPC = r.FallThrough(f.cfg.InstrBytes)
			} else {
				d.wrongPC = r.Target
			}
		}
	} else {
		f.bpred.PushUnconditional(r.PC)
	}

	// BTB probe for taken branches that use it.
	if r.Taken && r.Type.UsesBTB() {
		d.flags |= chunkBTB
		d.btbPC = r.PC
		d.btbTarget = r.Target
	}

	// Return address stack and indirect target prediction: calls push
	// their return address, returns pop and score it, and indirect
	// transfers consult the ITTAGE-style target predictor (the paper's
	// §VI future-work interaction).
	switch r.Type {
	case trace.DirectCall, trace.IndirectCall:
		f.ras.Push(r.FallThrough(f.cfg.InstrBytes))
	case trace.Return:
		f.ras.Pop(r.Target)
	}
	if r.Type == trace.IndirectCall || r.Type == trace.IndirectJump {
		o := f.ind.Predict(r.PC)
		f.ind.Update(o, r.PC, r.Target)
	}

	// Warm-up boundary: flip statistics on once crossed.
	if preWarm && f.instrs >= f.warmupLimit {
		f.warm = false
		d.flags |= chunkFlip
		f.bpred.ResetStats()
		f.ras.ResetStats()
		f.ind.ResetStats()
	}
	//ghrplint:ignore hotalloc recs is presized to chunkRecords and callers replay a full() chunk before deciding into it again
	ch.recs = append(ch.recs, d)
}

// lane is the per-policy half of the simulator: one I-cache and BTB
// replaying under one replacement policy. Lanes are laid out as values
// in a contiguous slice, and their caches carve tag/validity state from
// one shared arena, so the per-record sweep over N lanes walks a single
// slab instead of N scattered heap objects.
type lane struct {
	kind        PolicyKind
	icache      cache.Cache
	ibtb        btb.BTB
	ghrp        *core.ICachePolicy // non-nil only for PolicyGHRP
	pref        prefetchSet        // nil unless NextLinePrefetch
	prefStats   PrefetchStats
	blockShift  uint
	wrongDepth  int
	recoverHist bool // WrongPathInject: restore speculative history
	// replay applies a whole chunk of decisions to this lane. It is
	// bound at construction to an instantiation specialized to the
	// lane's concrete policy types, so the cache and BTB access paths
	// call the policy callbacks statically instead of through the
	// cache.Policy interface.
	replay func(ch *decChunk)
}

// PrefetchStats counts next-line prefetcher activity.
type PrefetchStats struct {
	Issued uint64 // prefetches that inserted a block
	Useful uint64 // prefetched blocks later hit by a demand access
}

// Coverage returns the fraction of issued prefetches that were used.
func (s PrefetchStats) Coverage() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful) / float64(s.Issued)
}

// laneHotWords is how many arena words one lane's cache and BTB carve.
func laneHotWords(cfg Config) int {
	return cache.HotWords(cfg.ICache.Sets(), cfg.ICache.Ways) +
		btb.HotWords(cfg.BTB.Sets(), cfg.BTB.Ways)
}

// newLanes builds one lane per kind, all carving hot state from a
// single shared arena. Their warm-up state is set by reset.
func newLanes(cfg Config, kinds []PolicyKind) ([]lane, error) {
	ar := cache.NewArena(len(kinds) * laneHotWords(cfg))
	lanes := make([]lane, len(kinds))
	for i, kind := range kinds {
		if err := lanes[i].init(cfg, kind, ar); err != nil {
			return nil, err
		}
	}
	return lanes, nil
}

func (l *lane) init(cfg Config, kind PolicyKind, ar *cache.Arena) error {
	if kind >= numPolicies {
		return fmt.Errorf("frontend: invalid policy kind %d", kind)
	}
	l.kind = kind
	l.blockShift = shiftOf(uint64(cfg.ICache.BlockBytes))
	l.wrongDepth = cfg.WrongPathDepth
	l.recoverHist = cfg.WrongPath == WrongPathInject
	icPolicy, err := l.makeICachePolicy(cfg)
	if err != nil {
		return err
	}
	if err := l.icache.Init(cfg.ICache.Sets(), cfg.ICache.Ways, icPolicy, ar); err != nil {
		return err
	}
	btbPolicy, err := l.makeBTBPolicy(cfg)
	if err != nil {
		return err
	}
	if err := l.ibtb.Init(cfg.BTB.Sets(), cfg.BTB.Ways, cfg.InstrBytes, btbPolicy, ar); err != nil {
		return err
	}
	if cfg.NextLinePrefetch {
		l.pref = newPrefetchFilter()
	}
	l.bindReplay(icPolicy, btbPolicy)
	return nil
}

// reset puts the lane in the state a simulation starts from: cache and
// BTB contents, clocks and statistics cleared (their arena words
// included), every policy table and seed restored, the prefetch filter
// emptied, and both structures in warm-up mode when warm is set.
//
//ghrp:hotpath
func (l *lane) reset(warm bool) {
	l.icache.Reset()
	l.ibtb.Reset()
	if l.pref != nil {
		l.pref.reset()
	}
	l.prefStats = PrefetchStats{}
	l.icache.SetWarmup(warm)
	l.ibtb.SetWarmup(warm)
}

func (l *lane) makeICachePolicy(cfg Config) (cache.Policy, error) {
	switch l.kind {
	case PolicyLRU:
		return policies.NewLRU(), nil
	case PolicyRandom:
		return policies.NewRandom(cfg.RandomSeed), nil
	case PolicyFIFO:
		return policies.NewFIFO(), nil
	case PolicySRRIP:
		return policies.NewSRRIP(), nil
	case PolicySDBP:
		return policies.NewSDBPConfig(cfg.SDBP), nil
	case PolicySHiP:
		return policies.NewSHiP(), nil
	case PolicyDIP:
		return policies.NewDIP(), nil
	case PolicyGHRP:
		p, err := core.NewICachePolicy(cfg.GHRP)
		if err != nil {
			return nil, err
		}
		l.ghrp = p
		return p, nil
	default:
		return nil, fmt.Errorf("frontend: unhandled policy %v", l.kind)
	}
}

func (l *lane) makeBTBPolicy(cfg Config) (cache.Policy, error) {
	switch l.kind {
	case PolicyLRU:
		return policies.NewLRU(), nil
	case PolicyRandom:
		return policies.NewRandom(cfg.RandomSeed + 1), nil
	case PolicyFIFO:
		return policies.NewFIFO(), nil
	case PolicySRRIP:
		return policies.NewSRRIP(), nil
	case PolicySDBP:
		return policies.NewSDBPConfig(cfg.SDBP), nil
	case PolicySHiP:
		return policies.NewSHiP(), nil
	case PolicyDIP:
		return policies.NewDIP(), nil
	case PolicyGHRP:
		// The BTB shares the I-cache's predictor and metadata (§III-E).
		return btb.NewGHRPPolicy(l.ghrp, uint64(cfg.ICache.BlockBytes))
	default:
		return nil, fmt.Errorf("frontend: unhandled policy %v", l.kind)
	}
}

// Policy specialization. Passing a concrete policy type to the generic
// access paths would not devirtualize on its own: Go's gcshape
// stenciling collapses all pointer type arguments into one dictionary-
// driven instantiation. Wrapping each concrete policy pointer in its own
// struct type forces a distinct shape per policy, so every wrapper gets
// its own copy of replayChunk/cache.AccessWith/btb.AccessWith with the
// policy callbacks statically bound (and inlinable). The wrappers embed
// the pointer; the promoted methods are exactly the policy's own.
type (
	wLRU    struct{ *policies.LRU }
	wFIFO   struct{ *policies.FIFO }
	wRandom struct{ *policies.Random }
	wSRRIP  struct{ *policies.SRRIP }
	wSDBP   struct{ *policies.SDBP }
	wSHiP   struct{ *policies.SHiP }
	wDIP    struct{ *policies.DIP }
	wGHRP   struct{ *core.ICachePolicy }
	wGHRPB  struct{ *btb.GHRPPolicy }
)

// bindLane fixes a lane's replay function to the instantiation for its
// concrete policy pair.
func bindLane[IP, BP cache.Policy](l *lane, ip IP, bp BP) {
	l.replay = func(ch *decChunk) { replayChunk(l, ip, bp, ch) }
}

// bindReplay dispatches once, at construction, from the lane's kind to
// the specialized replay function. The default arm falls back to the
// interface-typed instantiation — bit-identical, just not devirtualized.
func (l *lane) bindReplay(icp, btbp cache.Policy) {
	switch l.kind {
	case PolicyLRU:
		bindLane(l, wLRU{icp.(*policies.LRU)}, wLRU{btbp.(*policies.LRU)})
	case PolicyRandom:
		bindLane(l, wRandom{icp.(*policies.Random)}, wRandom{btbp.(*policies.Random)})
	case PolicyFIFO:
		bindLane(l, wFIFO{icp.(*policies.FIFO)}, wFIFO{btbp.(*policies.FIFO)})
	case PolicySRRIP:
		bindLane(l, wSRRIP{icp.(*policies.SRRIP)}, wSRRIP{btbp.(*policies.SRRIP)})
	case PolicySDBP:
		bindLane(l, wSDBP{icp.(*policies.SDBP)}, wSDBP{btbp.(*policies.SDBP)})
	case PolicySHiP:
		bindLane(l, wSHiP{icp.(*policies.SHiP)}, wSHiP{btbp.(*policies.SHiP)})
	case PolicyDIP:
		bindLane(l, wDIP{icp.(*policies.DIP)}, wDIP{btbp.(*policies.DIP)})
	case PolicyGHRP:
		bindLane(l, wGHRP{icp.(*core.ICachePolicy)}, wGHRPB{btbp.(*btb.GHRPPolicy)})
	default:
		bindLane(l, icp, btbp)
	}
}

// WarmupFor derives the warm-up instruction count for a trace of the
// given length under cfg: half the instructions, capped (§IV-C).
func (c Config) WarmupFor(totalInstructions uint64) uint64 {
	w := uint64(float64(totalInstructions) * c.WarmupFraction)
	if w > c.WarmupCap {
		w = c.WarmupCap
	}
	return w
}

// laneAccess performs one I-cache access and mirrors the retired GHRP
// path history (right-path accesses commit immediately in a trace-driven
// simulation). With next-line prefetching enabled, a demand miss also
// installs the following block; prefetch fills do not count as demand
// traffic.
//
//ghrp:hotpath
func laneAccess[P cache.Policy](l *lane, p P, block, pc uint64, warm bool) {
	hit, _ := cache.AccessWith(&l.icache, p, cache.Access{Block: block, PC: pc})
	if l.ghrp != nil {
		l.ghrp.History().Commit(pc)
	}
	if l.pref == nil {
		return
	}
	if hit {
		if l.pref.take(block) && !warm {
			l.prefStats.Useful++
		}
	} else {
		next := block + 1
		if !l.icache.Lookup(next) {
			if !warm {
				l.icache.SetWarmup(true)
			}
			_, bypassed := cache.AccessWith(&l.icache, p, cache.Access{Block: next, PC: next << l.blockShift})
			if !warm {
				l.icache.SetWarmup(false)
				if !bypassed {
					l.prefStats.Issued++
				}
			}
			if !bypassed {
				l.pref.add(next)
			}
		}
	}
}

// laneInject fetches wrongDepth sequential wrong-path blocks starting at
// wrongPC into this lane's I-cache, polluting it and GHRP's speculative
// history; then the speculative history is restored from the retired
// history (§III-F), unless recovery is disabled for the ablation.
// Wrong-path accesses change cache and history state but are not demand
// misses; they are excluded from statistics.
//
//ghrp:hotpath
func laneInject[P cache.Policy](l *lane, p P, wrongPC uint64, warm bool) {
	if !warm {
		l.icache.SetWarmup(true)
	}
	base := wrongPC >> l.blockShift
	for i := 0; i < l.wrongDepth; i++ {
		b := base + uint64(i)
		pc := b << l.blockShift
		if i == 0 {
			pc = wrongPC
		}
		cache.AccessWith(&l.icache, p, cache.Access{Block: b, PC: pc})
	}
	if !warm {
		l.icache.SetWarmup(false)
	}
	if l.ghrp != nil && l.recoverHist {
		l.ghrp.History().Recover()
	}
}

// makeResult assembles one lane's Result from the shared front counters
// and the lane's structures.
func makeResult(f *front, l *lane) Result {
	return Result{
		Policy:            l.kind,
		TotalInstructions: f.instrs,
		CountedInstrs:     f.counted,
		Records:           f.records,
		ICache:            l.icache.Stats(),
		BTB:               l.ibtb.Stats(),
		Branch:            f.bpred.Stats(),
		RAS:               f.ras.Stats(),
		Indirect:          f.ind.Stats(),
		Prefetch:          l.prefStats,
	}
}

func shiftOf(v uint64) uint {
	s := uint(0)
	for ; v > 1; v >>= 1 {
		s++
	}
	return s
}
