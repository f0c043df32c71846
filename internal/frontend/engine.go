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
// warm-up mark sequence it would have derived on its own.
//
// The split is made explicit by decision chunks (chunk.go):
// front.decide distills one record straight into a chunk as the four
// lane-facing operations (coalesced I-cache accesses, optional
// wrong-path injection, optional BTB probe, optional warm-up mark), and
// each lane replays a chunk through a body specialized to its concrete
// policy types.

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
	instrs      uint64
	records     uint64
	lastBlock   uint64 // fetch buffer: last I-cache line touched
	haveLast    bool

	// Warm-up marks (warmup.go): the window of candidate limits whose
	// crossing records are marked, and the counters saved at a zero mark
	// and at each marked record.
	markLo, markHi uint64
	marks          []Result

	branch perceptron.Outcome // scratch: current conditional branch's prediction
}

// newFront allocates the front's predictors and fetcher. Its warm-up
// limit is set by reset, which every construction path calls next.
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
// buffer zeroed, marks down to the zero mark, and the warm-up limit set.
// An explicit limit is its own one-candidate window; WarmupFromStream
// marks nothing until StreamProgram arms its window. Every table keeps
// its storage.
//
//ghrp:hotpath
func (f *front) reset(warmupLimit uint64) {
	f.bpred.Reset()
	f.ras.Reset()
	f.ind.Reset()
	f.fetcher.Reset()
	f.warmupLimit = warmupLimit
	f.window(warmupLimit, warmupLimit)
	f.marks = append(f.marks[:0], Result{})
	f.instrs, f.records = 0, 0
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
	var d decRec

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

	// A record that crosses a candidate warm-up limit may end warm-up:
	// the counters it leaves behind are saved, here and in every lane.
	if f.instrs >= f.markLo && f.instrs-g.Instrs < f.markHi {
		d.flags |= chunkMark
		f.mark()
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
	recoverHist bool     // WrongPathInject: restore speculative history
	marks       []Result // counters at the zero mark and each marked record (warmup.go)
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

// init builds the lane for kind. Its one switch on the kind builds the
// kind's I-cache and BTB policies and hands them, wrapped, to initLane,
// so the lane replays through the body specialized to them.
func (l *lane) init(cfg Config, kind PolicyKind, ar *cache.Arena) error {
	l.kind = kind
	l.blockShift = shiftOf(uint64(cfg.ICache.BlockBytes))
	l.wrongDepth = cfg.WrongPathDepth
	l.recoverHist = cfg.WrongPath == WrongPathInject
	if cfg.NextLinePrefetch {
		l.pref = newPrefetchFilter()
	}
	switch kind {
	case PolicyLRU:
		return initLane(l, cfg, ar, wLRU{policies.NewLRU()}, wLRU{policies.NewLRU()})
	case PolicyRandom:
		return initLane(l, cfg, ar, wRandom{policies.NewRandom(cfg.RandomSeed)}, wRandom{policies.NewRandom(cfg.RandomSeed + 1)})
	case PolicyFIFO:
		return initLane(l, cfg, ar, wFIFO{policies.NewFIFO()}, wFIFO{policies.NewFIFO()})
	case PolicySRRIP:
		return initLane(l, cfg, ar, wSRRIP{policies.NewSRRIP()}, wSRRIP{policies.NewSRRIP()})
	case PolicySDBP:
		return initLane(l, cfg, ar, wSDBP{policies.NewSDBPConfig(cfg.SDBP)}, wSDBP{policies.NewSDBPConfig(cfg.SDBP)})
	case PolicySHiP:
		return initLane(l, cfg, ar, wSHiP{policies.NewSHiP()}, wSHiP{policies.NewSHiP()})
	case PolicyDIP:
		return initLane(l, cfg, ar, wDIP{policies.NewDIP()}, wDIP{policies.NewDIP()})
	case PolicyGHRP:
		p, err := core.NewICachePolicy(cfg.GHRP)
		if err != nil {
			return err
		}
		// The BTB shares the I-cache's predictor and metadata (§III-E).
		bp, err := btb.NewGHRPPolicy(p, uint64(cfg.ICache.BlockBytes))
		if err != nil {
			return err
		}
		l.ghrp = p
		return initLane(l, cfg, ar, wGHRP{p}, wGHRPB{bp})
	}
	return fmt.Errorf("frontend: invalid policy kind %d", kind)
}

// reset puts the lane in the state a simulation starts from: cache and
// BTB contents, clocks and statistics cleared (their arena words
// included), every policy table and seed restored, the prefetch filter
// emptied, and marks down to the zero mark.
//
//ghrp:hotpath
func (l *lane) reset() {
	l.icache.Reset()
	l.ibtb.Reset()
	if l.pref != nil {
		l.pref.reset()
	}
	l.prefStats = PrefetchStats{}
	l.marks = append(l.marks[:0], Result{})
}

// Policy specialization. Passing a concrete policy type to the generic
// access paths would not devirtualize on its own: Go's gcshape
// stenciling collapses all pointer type arguments into one dictionary-
// driven instantiation. Wrapping each concrete policy pointer in its own
// struct type forces a distinct shape per policy, so every wrapper gets
// its own copy of replayChunk/cache.AccessWith/btb.AccessWith with the
// policy callbacks statically bound (and inlinable). The wrappers embed
// the pointer, so the promoted methods are exactly the policy's own, and
// a lane's cache and BTB hold the wrappers as their policies.
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

// initLane sets up the lane's I-cache with ip and its BTB with bp, both
// carving hot state from ar, and fixes the lane's replay function to the
// instantiation for that concrete policy pair.
func initLane[IP, BP cache.Policy](l *lane, cfg Config, ar *cache.Arena, ip IP, bp BP) error {
	if err := l.icache.Init(cfg.ICache.Sets(), cfg.ICache.Ways, ip, ar); err != nil {
		return err
	}
	if err := l.ibtb.Init(cfg.BTB.Sets(), cfg.BTB.Ways, cfg.InstrBytes, bp, ar); err != nil {
		return err
	}
	l.replay = func(ch *decChunk) { replayChunk(l, ip, bp, ch) }
	return nil
}

// laneAccess performs one I-cache access and mirrors the retired GHRP
// path history (right-path accesses commit immediately in a trace-driven
// simulation). With next-line prefetching enabled, a demand miss also
// installs the following block; prefetch fills do not count as demand
// traffic.
//
//ghrp:hotpath
func laneAccess[P cache.Policy](l *lane, p P, block, pc uint64) {
	hit, _ := cache.AccessWith(&l.icache, p, cache.Access{Block: block, PC: pc})
	if l.ghrp != nil {
		l.ghrp.History().Commit(pc)
	}
	if l.pref == nil {
		return
	}
	if hit {
		if l.pref.take(block) {
			l.prefStats.Useful++
		}
	} else {
		next := block + 1
		if !l.icache.Lookup(next) {
			l.icache.SetWarmup(true)
			_, bypassed := cache.AccessWith(&l.icache, p, cache.Access{Block: next, PC: next << l.blockShift})
			l.icache.SetWarmup(false)
			if !bypassed {
				l.prefStats.Issued++
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
func laneInject[P cache.Policy](l *lane, p P, wrongPC uint64) {
	l.icache.SetWarmup(true)
	base := wrongPC >> l.blockShift
	for i := 0; i < l.wrongDepth; i++ {
		b := base + uint64(i)
		pc := b << l.blockShift
		if i == 0 {
			pc = wrongPC
		}
		cache.AccessWith(&l.icache, p, cache.Access{Block: b, PC: pc})
	}
	l.icache.SetWarmup(false)
	if l.ghrp != nil && l.recoverHist {
		l.ghrp.History().Recover()
	}
}

func shiftOf(v uint64) uint {
	s := uint(0)
	for ; v > 1; v >>= 1 {
		s++
	}
	return s
}
