package frontend

import (
	"fmt"

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
	// chunks are the decision chunks replays fill. NewFanOut allocates
	// the first, which queues Process's records and the serial stream's;
	// the checkpoint-parallel stream circulates up to poolChunks,
	// allocated on its first use. Between calls every chunk is empty
	// except the first, which holds what Process queued and no replay
	// has consumed yet.
	chunks []*decChunk
	tap    *AccessLog // receives every replayed chunk's accesses (TapAccesses)
}

// NewFanOut builds a simulator driving one lane per element of kinds
// (duplicates allowed — each gets an independent lane). warmupLimit is
// the number of leading instructions excluded from every lane's
// statistics; use WarmupFor to derive it from a trace length per the
// paper's rule. Lanes track no efficiency matrices unless
// TrackEfficiency turns them on.
func NewFanOut(cfg Config, kinds []PolicyKind, warmupLimit uint64) (*FanOut, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("frontend: fan-out needs at least one policy")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := newFront(cfg)
	if err != nil {
		return nil, err
	}
	lanes, err := newLanes(cfg, kinds)
	if err != nil {
		return nil, err
	}
	fo := &FanOut{front: f, lanes: lanes, chunks: []*decChunk{newDecChunk()}}
	fo.Reset(warmupLimit)
	return fo, nil
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
		fo.lanes[i].reset(fo.front.warm)
	}
	fo.chunks[0].reset()
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
// on Flush.
//
//ghrp:hotpath
func (fo *FanOut) Process(r trace.Record) {
	ch := fo.chunks[0]
	fo.front.decide(r, ch)
	if ch.full() {
		fo.replay(ch)
	}
}

// Flush replays every queued record on every lane.
//
//ghrp:hotpath
func (fo *FanOut) Flush() {
	if ch := fo.chunks[0]; !ch.empty() {
		fo.replay(ch)
	}
}

// replay advances every lane through ch, then empties it.
//
//ghrp:hotpath
func (fo *FanOut) replay(ch *decChunk) {
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

// Results flushes the queue and snapshots the per-lane statistics, in
// the order the policy kinds were given to NewFanOut.
func (fo *FanOut) Results() []Result {
	fo.Flush()
	out := make([]Result, len(fo.lanes))
	for i := range fo.lanes {
		out[i] = makeResult(fo.front, &fo.lanes[i])
	}
	return out
}

// StreamProgram re-emits a program's deterministic record stream
// straight into the fan-out, with no intermediate record buffer; the
// replay cost is one program interpretation regardless of lane count.
// Because workload.Emit is deterministic for a (program, seed, target)
// triple, repeated streams replay the identical trace GenerateRecords
// would buffer.
//
// workers bounds the goroutines lane replay is spread over; it is
// clamped to the lane count, and one or less replays on the calling
// goroutine. Results are bit-identical for every worker count.
func (fo *FanOut) StreamProgram(prog *workload.Program, seed, target uint64, workers int, opts StreamOptions) ([]Result, error) {
	if workers > len(fo.lanes) {
		workers = len(fo.lanes)
	}
	if workers > 1 {
		return fo.streamParallel(prog, seed, target, workers, opts)
	}
	every := opts.every()
	ch := fo.chunks[0]
	var n uint64
	// The per-record body is Process inlined by hand: it runs for every
	// record of every workload, and a call per record costs measurable
	// throughput here.
	_, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		fo.front.decide(r, ch)
		if ch.full() {
			fo.replay(ch)
		}
		if opts.Progress != nil {
			n++
			if n%every == 0 {
				return opts.Progress(n, fo.front.instrs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fo.Results(), nil
}

// SimulateFanOut executes a workload program once and replays it under
// every given policy in lockstep. It returns one Result per kind, each
// bit-identical to what a one-lane fan-out of that kind would produce
// with the same warm-up limit.
func SimulateFanOut(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, opts StreamOptions) ([]Result, error) {
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return fo.StreamProgram(prog, seed, target, 1, opts)
}
