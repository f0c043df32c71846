package frontend

import (
	"fmt"

	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// FanOut replays one record stream through N policy lanes in lockstep:
// the policy-independent front (direction predictor, RAS, indirect
// predictor, fetch reconstruction, warm-up accounting) is evaluated once
// per record and its decisions — the coalesced I-cache access list, the
// wrong-path block list, the BTB probe — are applied to every lane.
//
// Because no front component observes cache or BTB state, each lane sees
// exactly the sequence of accesses it would derive as a standalone
// Engine, and lanes never observe each other; the fused replay is
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
	// chunks are the decision chunks replays fill: the serial path uses
	// the first, the checkpoint-parallel path up to poolChunks. They are
	// allocated on first use and kept for the FanOut's lifetime.
	chunks []*decChunk
}

// NewFanOut builds a fused simulator driving one lane per element of
// kinds (duplicates allowed — each gets an independent lane). The
// warm-up limit applies to all lanes, exactly as it would to N separate
// engines built with the same limit. Lanes track no efficiency
// matrices: fan-out results never expose them.
func NewFanOut(cfg Config, kinds []PolicyKind, warmupLimit uint64) (*FanOut, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("frontend: fan-out needs at least one policy")
	}
	f, lanes, err := newSim(cfg, kinds)
	if err != nil {
		return nil, err
	}
	fo := &FanOut{front: f, lanes: lanes}
	fo.Reset(warmupLimit)
	return fo, nil
}

// Reset puts the fan-out back into exactly the state NewFanOut builds
// for warmupLimit — the front's predictors, RAS, fetcher and counters,
// and every lane's cache, BTB, policy tables, seeds, history and
// prefetch filter — in place and without allocating. The configuration
// and lane roster stay those given to NewFanOut.
// TestFanOutResetMatchesFresh pins the equivalence.
//
//ghrp:hotpath
func (fo *FanOut) Reset(warmupLimit uint64) {
	resetSim(fo.front, fo.lanes, warmupLimit)
}

// chunkPool returns the fan-out's first n decision chunks, allocating
// any that do not exist yet.
func (fo *FanOut) chunkPool(n int) []*decChunk {
	for len(fo.chunks) < n {
		fo.chunks = append(fo.chunks, newDecChunk())
	}
	return fo.chunks[:n]
}

// Process consumes one branch record, advancing every lane.
func (fo *FanOut) Process(r trace.Record) {
	stepRecord(fo.front, fo.lanes, r)
}

// Instructions returns total instructions processed so far.
func (fo *FanOut) Instructions() uint64 { return fo.front.instrs }

// Results snapshots the per-lane statistics, in the order the policy
// kinds were given to NewFanOut.
func (fo *FanOut) Results() []Result {
	out := make([]Result, len(fo.lanes))
	for i := range fo.lanes {
		out[i] = makeResult(fo.front, &fo.lanes[i])
	}
	return out
}

// StreamProgram re-emits a program's deterministic record stream
// straight into the fan-out, with no intermediate record buffer; the
// replay cost is one program interpretation regardless of lane count.
//
// Internally the stream runs lane-major: the front's decisions are
// serialized into chunks (chunk.go) and each lane replays a whole chunk
// per activation, which keeps one specialized replay body and one
// lane's tables hot at a time instead of cycling through all of them
// every record. The result is bit-identical to record-major Process
// calls; TestFanOutMatchesPerPolicy and the chunking equivalence tests
// pin that.
func (fo *FanOut) StreamProgram(prog *workload.Program, seed, target uint64, opts StreamOptions) ([]Result, error) {
	every := opts.ProgressEvery
	if every == 0 {
		every = DefaultProgressEvery
	}
	ch := fo.chunkPool(1)[0]
	ch.reset() // an aborted earlier stream may have left records behind
	var n uint64
	_, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		fo.front.decide(r, &fo.front.dec)
		ch.push(&fo.front.dec)
		if ch.full() {
			for i := range fo.lanes {
				fo.lanes[i].replay(ch)
			}
			ch.reset()
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
	for i := range fo.lanes {
		fo.lanes[i].replay(ch)
	}
	return fo.Results(), nil
}

// SimulateFanOut executes a workload program once and replays it under
// every given policy in lockstep. It returns one Result per kind, each
// bit-identical to what SimulateProgramStream would produce for that
// kind alone with the same warm-up limit.
func SimulateFanOut(cfg Config, kinds []PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, opts StreamOptions) ([]Result, error) {
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return fo.StreamProgram(prog, seed, target, opts)
}
