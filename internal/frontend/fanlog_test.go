package frontend

import (
	"errors"
	"testing"

	"ghrpsim/internal/workload"
)

// simulateSplit streams prog (seed 1) through a fresh fan-out with lane
// replay spread over workers goroutines.
func simulateSplit(cfg Config, kinds []PolicyKind, prog *workload.Program, target, warmupLimit uint64, workers int, opts StreamOptions) ([]Result, error) {
	fo, err := NewFanOut(cfg, kinds, warmupLimit)
	if err != nil {
		return nil, err
	}
	return fo.StreamProgram(prog, 1, target, workers, opts)
}

// TestFanOutParallelMatchesSerial pins the checkpoint-parallel
// contract: splitting lane replay across worker goroutines must produce
// results bit-identical to the serial fused path for any worker count,
// with and without a warm-up window, duplicate lanes included. The
// target is chosen to cross chunk boundaries so both the full-chunk
// publish path and the final drain are exercised.
func TestFanOutParallelMatchesSerial(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := smallConfig()
	const target = 150_000
	kinds := append(allPolicies(), PolicyGHRP, PolicyLRU) // duplicates ride along
	total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []uint64{0, cfg.WarmupFor(total)} {
		serial, err := SimulateFanOut(cfg, kinds, prog, 1, target, warm, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, len(kinds), len(kinds) + 5} {
			split, err := simulateSplit(cfg, kinds, prog, target, warm, workers, StreamOptions{})
			if err != nil {
				t.Fatalf("warm=%d workers=%d: %v", warm, workers, err)
			}
			if len(split) != len(serial) {
				t.Fatalf("warm=%d workers=%d: got %d results, want %d", warm, workers, len(split), len(serial))
			}
			for i := range serial {
				if split[i] != serial[i] {
					t.Errorf("warm=%d workers=%d lane %d (%v): parallel result diverges:\n split: %+v\nserial: %+v",
						warm, workers, i, kinds[i], split[i], serial[i])
				}
			}
		}
	}
}

// TestFanOutParallelProgressAbort checks that an aborting progress
// callback shuts the worker pipeline down cleanly: the error comes
// back, the call does not deadlock on the bounded chunk pool, and no
// chunk is left holding records a later Flush would replay.
func TestFanOutParallelProgressAbort(t *testing.T) {
	prog := fanOutProgram(t)
	cfg := smallConfig()
	boom := errors.New("stop")
	opts := StreamOptions{
		ProgressEvery: 64,
		Progress: func(records, instructions uint64) error {
			if records >= 512 {
				return boom
			}
			return nil
		},
	}
	fo, err := NewFanOut(cfg, allPolicies(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fo.StreamProgram(prog, 1, 150_000, 4, opts); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the progress abort error", err)
	}
	requireChunksEmpty(t, fo)
}
