package frontend

import (
	"fmt"
	"reflect"
	"testing"

	"ghrpsim/internal/workload"
)

// resetVariants are the configurations the reuse tests cover: the
// default front end plus each option that gives lanes or the front extra
// state to restore.
func resetVariants() []struct {
	name   string
	mutate func(*Config)
} {
	return []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"prefetch", func(c *Config) { c.NextLinePrefetch = true }},
		{"inject", func(c *Config) { c.WrongPath = WrongPathInject }},
		{"norecover", func(c *Config) { c.WrongPath = WrongPathNoRecover }},
	}
}

// resetKinds is every policy kind with duplicate lanes riding along.
func resetKinds() []PolicyKind {
	return append(ExtendedPolicies(), PolicyGHRP, PolicyRandom)
}

// resetWorkloads generates n programs from the suite generator, whose
// default grid sweeps the footprint multiplier across its indices.
func resetWorkloads(t *testing.T, n int) []*workload.Program {
	t.Helper()
	g := workload.SuiteGen{N: n}
	progs := make([]*workload.Program, n)
	for i := range progs {
		prog, err := g.At(i).Generate()
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
	}
	return progs
}

// resetRun returns workload i's instruction target and warm-up limit:
// targets on both sides of a chunk boundary, and warm-up alternating
// between none and a window that ends mid-stream.
func resetRun(i int) (target, warm uint64) {
	target = 20_000 + uint64(i%3)*45_000
	if i%2 == 1 {
		warm = target / 3
	}
	return target, warm
}

// TestFanOutReuseMatchesFresh is the reuse contract: one fan-out Reset
// and replayed across many workloads of different footprints returns,
// for every workload, exactly the results a freshly built fan-out
// returns.
func TestFanOutReuseMatchesFresh(t *testing.T) {
	progs := resetWorkloads(t, 20)
	kinds := resetKinds()
	for _, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			v.mutate(&cfg)
			var reused *FanOut
			for i, prog := range progs {
				target, warm := resetRun(i)
				if reused == nil {
					var err error
					if reused, err = NewFanOut(cfg, kinds, warm); err != nil {
						t.Fatal(err)
					}
				} else {
					reused.Reset(warm)
				}
				got, err := reused.StreamProgram(prog, 1, target, StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewFanOut(cfg, kinds, warm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.StreamProgram(prog, 1, target, StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for l := range want {
					if got[l] != want[l] {
						t.Fatalf("workload %d lane %d (%v): reused fan-out diverges from a fresh one:\n reused: %+v\n  fresh: %+v",
							i, l, kinds[l], got[l], want[l])
					}
				}
			}
		})
	}
}

// TestFanOutResetMatchesFresh checks Reset field by field: after
// replaying several workloads (one of them aborted mid-stream), a Reset
// fan-out's front and lanes must equal a freshly built one's. Unlike a
// results comparison, this catches state Reset forgets even when the
// next workload happens not to expose it.
func TestFanOutResetMatchesFresh(t *testing.T) {
	progs := resetWorkloads(t, 4)
	kinds := resetKinds()
	for _, v := range resetVariants() {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			v.mutate(&cfg)
			fo, err := NewFanOut(cfg, kinds, 0)
			if err != nil {
				t.Fatal(err)
			}
			abort := StreamOptions{ProgressEvery: 1000, Progress: func(records, _ uint64) error {
				return fmt.Errorf("abort")
			}}
			for i, prog := range progs {
				target, warm := resetRun(i)
				fo.Reset(warm)
				opts := StreamOptions{}
				if i == len(progs)-1 {
					opts = abort
				}
				if _, err := fo.StreamProgram(prog, 1, target, opts); err != nil && i != len(progs)-1 {
					t.Fatal(err)
				}
			}
			for _, warm := range []uint64{0, 5_000} {
				fo.Reset(warm)
				fresh, err := NewFanOut(cfg, kinds, warm)
				if err != nil {
					t.Fatal(err)
				}
				requireSameState(t, fo, fresh)
			}
		})
	}
}

// requireChunksEmpty fails unless fo's decision chunk is empty.
func requireChunksEmpty(t *testing.T, fo *FanOut) {
	t.Helper()
	if ch := fo.chunk; !ch.empty() || len(ch.accesses) != 0 {
		t.Fatalf("decision chunk not empty: %d records, %d accesses", len(ch.recs), len(ch.accesses))
	}
}

// statePart is one named component of a fan-out's state.
type statePart struct {
	name      string
	got, want any
}

// requireSameState compares two fan-outs' simulation state. The
// decision chunk is compared by emptiness (Reset keeps its capacity), and
// lanes' bound replay functions by nothing: they are fixed at
// construction.
func requireSameState(t *testing.T, got, want *FanOut) {
	t.Helper()
	requireChunksEmpty(t, got)
	requireChunksEmpty(t, want)
	gf, wf := *got.front, *want.front
	parts := []statePart{
		{"perceptron", *gf.bpred, *wf.bpred},
		{"RAS", *gf.ras, *wf.ras},
		{"indirect", *gf.ind, *wf.ind},
		{"fetcher", *gf.fetcher, *wf.fetcher},
		{"front", gf, wf},
	}
	if len(got.lanes) != len(want.lanes) {
		t.Fatalf("%d lanes, want %d", len(got.lanes), len(want.lanes))
	}
	for i := range want.lanes {
		gl, wl := got.lanes[i], want.lanes[i]
		gl.replay, wl.replay = nil, nil
		name := fmt.Sprintf("lane %d (%v)", i, wl.kind)
		parts = append(parts,
			statePart{name + " I-cache", gl.icache, wl.icache},
			statePart{name + " BTB", gl.ibtb, wl.ibtb},
			statePart{name, gl, wl})
	}
	for _, p := range parts {
		if !reflect.DeepEqual(p.got, p.want) {
			t.Errorf("%s: Reset state differs from a fresh fan-out's", p.name)
		}
	}
}

// Reset runs once per workload on every sim worker; it must restore
// state in place, never reallocate it.
func TestFanOutResetZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NextLinePrefetch = true
	fo, err := NewFanOut(cfg, resetKinds(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { fo.Reset(1_000) }); avg != 0 {
		t.Errorf("Reset allocates %.1f objects per call, want 0", avg)
	}
}
