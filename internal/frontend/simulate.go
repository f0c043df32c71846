package frontend

import (
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// DefaultProgressEvery is how many records pass between StreamOptions
// progress callbacks when the caller leaves ProgressEvery at zero.
const DefaultProgressEvery = 1 << 16

// StreamOptions tunes a streaming replay. The zero value streams with no
// callbacks.
type StreamOptions struct {
	// Progress, when non-nil, is invoked every ProgressEvery records
	// with the records and instructions replayed so far; returning an
	// error aborts the replay with that error (this is how callers
	// implement cancellation).
	Progress func(records, instructions uint64) error
	// ProgressEvery is the record interval between Progress calls;
	// 0 means DefaultProgressEvery.
	ProgressEvery uint64
}

// every returns the effective progress interval.
func (o StreamOptions) every() uint64 {
	if o.ProgressEvery == 0 {
		return DefaultProgressEvery
	}
	return o.ProgressEvery
}

// CountInstructions walks a record slice with a fetch reconstructor and
// returns the total instruction count it implies.
func CountInstructions(recs []trace.Record, instrBytes, blockBytes uint64) (uint64, error) {
	f, err := trace.NewFetcher(instrBytes, blockBytes)
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, r := range recs {
		total += f.Advance(r).Instrs
	}
	return total, nil
}

// CountProgram streams a program's deterministic record stream through a
// fetch reconstructor without buffering it, returning the total
// instruction and record counts — the streaming equivalent of
// GenerateRecords followed by CountInstructions. Simulations derive
// their warm-up window in the same pass (WarmupFromStream); the
// benchmark's probe and the tests' two-pass reference still count first.
func CountProgram(cfg Config, prog *workload.Program, seed, target uint64, opts StreamOptions) (instrs, records uint64, err error) {
	f, err := trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return 0, 0, err
	}
	every := opts.every()
	var total, n uint64
	_, err = workload.Emit(prog, seed, target, func(r trace.Record) error {
		total += f.Advance(r).Instrs
		n++
		if opts.Progress != nil && n%every == 0 {
			return opts.Progress(n, total)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return total, n, nil
}

// SimulateProgramStream is SimulateFanOut for a single policy, kept for
// the benchmark's probe.
func SimulateProgramStream(cfg Config, kind PolicyKind, prog *workload.Program, seed, target, warmupLimit uint64, opts StreamOptions) (Result, error) {
	res, err := SimulateFanOut(cfg, []PolicyKind{kind}, prog, seed, target, warmupLimit, opts)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// GenerateRecords executes a program once and returns its record stream,
// so many policies can replay the identical trace.
func GenerateRecords(prog *workload.Program, seed, target uint64) ([]trace.Record, error) {
	recs := make([]trace.Record, 0, target/8)
	if _, err := workload.Emit(prog, seed, target, func(r trace.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
}
