package frontend

import (
	"errors"
	"testing"

	"ghrpsim/internal/workload"
)

func streamTestProgram(t *testing.T) (*workload.Program, uint64) {
	t.Helper()
	spec := workload.SuiteN(8)[3]
	prog, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return prog, 20_000
}

// CountProgram must report exactly what buffering the stream and running
// CountInstructions over it reports.
func TestCountProgramMatchesBuffered(t *testing.T) {
	cfg := DefaultConfig()
	prog, target := streamTestProgram(t)
	recs, err := GenerateRecords(prog, 1, target)
	if err != nil {
		t.Fatal(err)
	}
	wantInstrs, err := CountInstructions(recs, cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	gotInstrs, gotRecs, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotInstrs != wantInstrs || gotRecs != uint64(len(recs)) {
		t.Errorf("CountProgram = (%d instrs, %d records), buffered = (%d, %d)",
			gotInstrs, gotRecs, wantInstrs, len(recs))
	}
}

// Streaming replay with a CountProgram-derived warm-up must be
// bit-identical to replaying the buffered records with a warm-up
// counted from them.
func TestStreamMatchesBufferedRecords(t *testing.T) {
	cfg := DefaultConfig()
	prog, target := streamTestProgram(t)
	recs, err := GenerateRecords(prog, 1, target)
	if err != nil {
		t.Fatal(err)
	}
	total, _, err := CountProgram(cfg, prog, 1, target, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg.WarmupFor(total)
	for _, kind := range PaperPolicies() {
		want := simulateRecords(t, cfg, kind, recs)
		got, err := SimulateProgramStream(cfg, kind, prog, 1, target, warm, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: streaming diverged\n got %+v\nwant %+v", kind, got, want)
		}
	}
}

// SimulateProgramStream is SimulateFanOut with a one-kind roster.
func TestSimulateProgramStreamDelegates(t *testing.T) {
	cfg := DefaultConfig()
	prog, target := streamTestProgram(t)
	warm := cfg.WarmupFor(target)
	want, err := SimulateFanOut(cfg, []PolicyKind{PolicyGHRP}, prog, 1, target, warm, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateProgramStream(cfg, PolicyGHRP, prog, 1, target, warm, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want[0] {
		t.Errorf("SimulateProgramStream diverged from a one-lane SimulateFanOut")
	}
}

// A Progress callback error must abort the replay and surface unwrapped,
// so errors.Is-based cancellation works through the stack.
func TestStreamProgressAborts(t *testing.T) {
	cfg := DefaultConfig()
	prog, target := streamTestProgram(t)
	sentinel := errors.New("stop here")
	var calls int
	var lastRecords uint64
	_, err := SimulateProgramStream(cfg, PolicyLRU, prog, 1, target, 0, StreamOptions{
		ProgressEvery: 128,
		Progress: func(records, instructions uint64) error {
			calls++
			lastRecords = records
			if calls == 3 {
				return sentinel
			}
			return nil
		},
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 || lastRecords != 3*128 {
		t.Errorf("aborted after %d calls at %d records, want 3 calls at 384", calls, lastRecords)
	}

	_, _, err = CountProgram(cfg, prog, 1, target, StreamOptions{
		ProgressEvery: 128,
		Progress:      func(records, instructions uint64) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("CountProgram err = %v, want sentinel", err)
	}
}
