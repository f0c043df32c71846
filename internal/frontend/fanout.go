package frontend

import (
	"fmt"
	"reflect"

	"ghrpsim/internal/btb"
	"ghrpsim/internal/cache"
	"ghrpsim/internal/core"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// FanOut is the simulator: it replays one record stream through N
// policy lanes in lockstep (N = 1 simulates a single policy). The
// policy-independent front (direction predictor, RAS, indirect
// predictor, fetch reconstruction, warm-up accounting) is evaluated once
// per record and its decisions — the coalesced I-cache access list, the
// wrong-path block list, the BTB probe — are queued in a decision chunk
// that every lane replays lane-major (chunk.go).
//
// Because no front component observes cache or BTB state, each lane sees
// exactly the sequence of accesses it would derive in a one-lane
// fan-out, and lanes never observe each other; the fused replay is
// therefore bit-identical to N independent per-policy replays of the
// same stream. TestFanOutMatchesPerPolicy pins this contract.
//
// A FanOut is reusable: Reset returns it to its freshly built state, so
// a long-lived caller (one per sim worker goroutine) replays workload
// after workload without reallocating lanes, tables or decision chunks.
// It is not safe for concurrent use.
type FanOut struct {
	front *front
	lanes []lane
	// chunk queues the decisions of Process's and StreamProgram's
	// records until every lane replays them. Between calls it holds what
	// Process queued and no replay has consumed yet.
	chunk *decChunk
	tap   *AccessLog // receives every replayed chunk's accesses (TapAccesses)
}

// NewFanOut builds a simulator driving one lane per element of kinds
// (duplicates allowed — each gets an independent lane), all under cfg.
// warmupLimit is the number of leading instructions excluded from every
// lane's statistics. WarmupFromStream has StreamProgram apply the
// paper's rule (WarmupFor) to the stream's total; an explicit limit also
// serves Process. Lanes track no efficiency matrices unless
// TrackEfficiency turns them on. It is NewCellFanOut with every cell
// under one configuration.
func NewFanOut(cfg Config, kinds []PolicyKind, warmupLimit uint64) (*FanOut, error) {
	cells := make([]Cell, len(kinds))
	for i, k := range kinds {
		cells[i] = Cell{Kind: k, Config: cfg}
	}
	return NewCellFanOut(cells, warmupLimit)
}

// Cell is one lane of a fan-out: a policy kind under its own
// configuration.
type Cell struct {
	Kind   PolicyKind
	Config Config
}

// NewCellFanOut builds a simulator driving one lane per cell, in order.
// The cells share one front, so they must agree on every field it reads
// (SameFront); each lane reads the rest of its own cell's configuration
// — cache and BTB geometry, GHRP, SDBP, prefetching, wrong-path depth
// and recovery, and the Random seed. Every lane's Result is therefore
// bit-identical to a one-lane fan-out of its cell alone.
func NewCellFanOut(cells []Cell, warmupLimit uint64) (*FanOut, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("frontend: fan-out needs at least one policy")
	}
	words := 0
	for i := range cells {
		cfg := &cells[i].Config
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if !SameFront(cells[0].Config, *cfg) {
			return nil, fmt.Errorf("frontend: lane %d (%v) needs a different front than lane 0 (%v): cells must agree on instruction size, block size, branch predictor, whether wrong paths are fetched and the warm-up rule",
				i, cells[i].Kind, cells[0].Kind)
		}
		words += laneHotWords(*cfg)
	}
	f, err := newFront(cells[0].Config)
	if err != nil {
		return nil, err
	}
	ar := cache.NewArena(words)
	lanes := make([]lane, len(cells))
	for i := range cells {
		if err := lanes[i].init(cells[i].Config, cells[i].Kind, ar); err != nil {
			return nil, err
		}
	}
	fo := &FanOut{front: f, lanes: lanes, chunk: newDecChunk()}
	fo.Reset(warmupLimit)
	return fo, nil
}

// SameFront reports whether configurations a and b drive identical
// fronts: the same instruction size, I-cache block size, branch
// predictor and warm-up rule, and both or neither fetching wrong paths.
// The front reads no other field, so lanes whose configurations agree
// on these can share one (NewCellFanOut).
func SameFront(a, b Config) bool {
	return a.InstrBytes == b.InstrBytes && a.ICache.BlockBytes == b.ICache.BlockBytes &&
		reflect.DeepEqual(a.Branch, b.Branch) && (a.WrongPath == WrongPathOff) == (b.WrongPath == WrongPathOff) &&
		a.WarmupFraction == b.WarmupFraction && a.WarmupCap == b.WarmupCap
}

// Reset puts the fan-out back into exactly the state NewFanOut builds
// for warmupLimit — the front's predictors, RAS, fetcher and counters,
// every lane's cache, BTB, policy tables, seeds, history and prefetch
// filter, and the queue of unreplayed records — in place and without
// allocating. The configuration, the lane roster, efficiency tracking
// and an attached access log stay as they were; the log is emptied.
// TestFanOutResetMatchesFresh pins the equivalence.
//
//ghrp:hotpath
func (fo *FanOut) Reset(warmupLimit uint64) {
	fo.front.reset(warmupLimit)
	for i := range fo.lanes {
		fo.lanes[i].reset()
	}
	fo.chunk.reset()
	if fo.tap != nil {
		fo.tap.Blocks, fo.tap.Skip = fo.tap.Blocks[:0], 0
	}
}

// TrackEfficiency turns on every lane's I-cache and BTB efficiency
// matrices (the Fig. 1 and Fig. 5 heat maps), which lanes otherwise do
// not pay for. Call it before the first record; Reset clears the
// matrices and leaves tracking on.
func (fo *FanOut) TrackEfficiency() {
	for i := range fo.lanes {
		fo.lanes[i].icache.TrackEfficiency()
		fo.lanes[i].ibtb.TrackEfficiency()
	}
}

// ICache returns lane i's I-cache. Like BTB and GHRP it shows the
// records replayed so far: call Flush first to include queued ones.
func (fo *FanOut) ICache(i int) *cache.Cache { return &fo.lanes[i].icache }

// BTB returns lane i's BTB.
func (fo *FanOut) BTB(i int) *btb.BTB { return &fo.lanes[i].ibtb }

// GHRP returns lane i's GHRP I-cache policy, or nil if the lane runs
// another policy.
func (fo *FanOut) GHRP(i int) *core.ICachePolicy { return fo.lanes[i].ghrp }

// Process consumes one branch record: the front decides it at once and
// queues its decisions, which the lanes replay when the queue fills or
// on Flush. It needs an explicit warm-up limit.
//
//ghrp:hotpath
func (fo *FanOut) Process(r trace.Record) {
	if fo.front.warmupLimit == WarmupFromStream {
		panic(errNoWindow)
	}
	fo.front.decide(r, fo.chunk)
	if fo.chunk.full() {
		fo.replay()
	}
}

// Flush replays every queued record on every lane.
//
//ghrp:hotpath
func (fo *FanOut) Flush() {
	if !fo.chunk.empty() {
		fo.replay()
	}
}

// replay advances every lane through the queued chunk, then empties it.
//
//ghrp:hotpath
func (fo *FanOut) replay() {
	ch := fo.chunk
	if fo.tap != nil {
		fo.tap.add(ch)
	}
	for i := range fo.lanes {
		fo.lanes[i].replay(ch)
	}
	ch.reset()
}

// Instructions returns total instructions processed so far.
func (fo *FanOut) Instructions() uint64 { return fo.front.instrs }

// Results flushes the queue and snapshots the per-lane statistics after
// warm-up, in the order the policy kinds were given to NewFanOut. It
// also sets an attached access log's Skip. While warm-up outlasts the
// records, no statistic counts: every Result reports only its Policy,
// TotalInstructions and Records, and Skip is the log's whole length.
func (fo *FanOut) Results() []Result {
	fo.Flush()
	f := fo.front
	if f.warmupLimit == WarmupFromStream {
		panic(errNoWindow)
	}
	k := f.warmEnd()
	out := make([]Result, len(fo.lanes))
	for i := range fo.lanes {
		l := &fo.lanes[i]
		r := &out[i]
		*r = Result{Policy: l.kind, TotalInstructions: f.instrs, Records: f.records}
		if k == len(f.marks) {
			continue // warm-up outlasted the records: nothing counts
		}
		r.CountedInstrs, r.Branch, r.RAS, r.Indirect = f.instrs, f.bpred.Stats(), f.ras.Stats(), f.ind.Stats()
		r.ICache, r.BTB, r.Prefetch = l.icache.Stats(), l.ibtb.Stats(), l.prefStats
		m, fm := l.marks[k], &f.marks[k]
		m.CountedInstrs, m.Branch, m.RAS, m.Indirect = fm.CountedInstrs, fm.Branch, fm.RAS, fm.Indirect
		subtract(r, &m)
	}
	// Every tapped block is one demand I-cache access, so a lane's
	// access count at a mark is the tap's length there.
	if fo.tap != nil {
		fo.tap.Skip = len(fo.tap.Blocks)
		if k < len(f.marks) {
			fo.tap.Skip = int(fo.lanes[0].marks[k].ICache.Accesses)
		}
	}
	return out
}

// StreamProgram re-emits a program's deterministic record stream
// straight into the fan-out, with no intermediate record buffer; the
// replay cost is one program interpretation regardless of lane count.
// Because workload.Emit is deterministic for a (program, seed, target)
// triple, repeated streams replay the identical trace GenerateRecords
// would buffer. Records Process queued beforehand replay ahead of the
// stream.
//
// Under WarmupFromStream the program executes once: the totals its
// stream can reach for target (Program.FetchBounds) bound the candidate
// warm-up limits before the stream, and the total settles the limit
// after it. A total outside those bounds is an error naming the program.
func (fo *FanOut) StreamProgram(prog *workload.Program, seed, target uint64, opts StreamOptions) ([]Result, error) {
	f := fo.front
	fromStream := f.warmupLimit == WarmupFromStream
	var lo, hi uint64
	if fromStream {
		lo, hi = prog.FetchBounds(target)
		f.window(f.cfg.WarmupFor(lo), f.cfg.WarmupFor(hi))
	}
	every := opts.every()
	ch := fo.chunk
	var n uint64
	// The per-record body is Process inlined by hand: it runs for every
	// record of every workload, and a call per record costs measurable
	// throughput here.
	_, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		f.decide(r, ch)
		if ch.full() {
			fo.replay()
		}
		if opts.Progress != nil {
			n++
			if n%every == 0 {
				return opts.Progress(n, f.instrs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fromStream {
		if f.instrs < lo || f.instrs > hi {
			return nil, fmt.Errorf("frontend: %s: stream of %d instructions for target %d is outside its warm-up window [%d, %d]",
				prog.Name, f.instrs, target, lo, hi)
		}
		f.warmupLimit = f.cfg.WarmupFor(f.instrs)
	}
	return fo.Results(), nil
}

// SimulateFanOut executes a workload program once and replays it under
// every given policy in lockstep. It returns one Result per kind, each
// bit-identical to what a one-lane fan-out of that kind would produce
// with the same warm-up limit, WarmupFromStream included.
func SimulateFanOut(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, opts StreamOptions) ([]Result, error) {
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return fo.StreamProgram(prog, seed, target, opts)
}
