package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ghrpsim/internal/trace"
)

// hashProgram feeds every field of p that generation sets into h.
func hashProgram(h hash.Hash, p *Program) {
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i := func(v int) { u(uint64(v)) }
	buf = append(buf, p.Name...)
	i(int(p.Category))
	i(p.InitFunc)
	u(p.DispatchAddr)
	if p.DispatchIndirect {
		i(1)
	}
	i(p.BurstMin)
	i(p.BurstMax)
	i(len(p.Funcs))
	for _, f := range p.Funcs {
		if f.Scan {
			i(1)
		}
		i(len(f.Blocks))
		for _, b := range f.Blocks {
			u(b.Addr)
			i(b.Instrs)
			i(int(b.Term))
			i(b.Target)
			u(math.Float64bits(b.Bias))
			i(b.Callee)
			i(len(b.Callees))
			for _, c := range b.Callees {
				i(c)
			}
			i(b.TripCount)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	i(len(p.Phases))
	for _, ph := range p.Phases {
		i(len(ph.Funcs))
		for k, f := range ph.Funcs {
			i(f)
			u(math.Float64bits(ph.Weights[k]))
		}
	}
	h.Write(buf)
}

// programsGoldenSHA pins generated programs field by field over a
// sample of the fixed table and a mixed-footprint grid. Reusing a
// Generator's storage must not change a single draw; if a deliberate
// generator change moves the hash, regenerate with:
//
//	go test ./internal/workload/ -run TestGeneratedProgramsPinned -v
const programsGoldenSHA = "2506db823b1c30a5d62fd1117e14b63be69dd13999e14d18d2a9d186563246e9"

func TestGeneratedProgramsPinned(t *testing.T) {
	h := sha256.New()
	specs := append(SuiteN(24), Materialize(SuiteGen{N: 48})...)
	for _, s := range specs {
		p, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		hashProgram(h, p)
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("programs SHA-256: %s", got)
	if got != programsGoldenSHA {
		t.Errorf("generated programs changed:\n got  %s\n want %s", got, programsGoldenSHA)
	}
}

// generatorSpecs is a mixed population for reuse tests: every fixed
// workload plus 240 grid indices, which cover all four categories and
// all eight footprint steps (0.25x to 4x). It is ordered largest,
// smallest, second largest, second smallest, ..., so every program is
// generated over the leftovers of a very different one.
func generatorSpecs(t *testing.T) []Spec {
	t.Helper()
	grid := SuiteGen{N: 240}.WithDefaults()
	specs := append(Suite(), Materialize(grid)...)
	cats := map[trace.Category]bool{}
	steps := map[float64]bool{}
	for i := 0; i < grid.N; i++ {
		cats[grid.At(i).Category] = true
		steps[grid.footprintAt(i)] = true
	}
	if len(cats) != 4 || len(steps) != grid.FootprintSteps {
		t.Fatalf("grid covers %d categories and %d footprint steps, want 4 and %d", len(cats), len(steps), grid.FootprintSteps)
	}
	size := make(map[string]int, len(specs))
	var g Generator
	for _, s := range specs {
		if _, err := g.Generate(s.Profile); err != nil {
			t.Fatal(err)
		}
		size[s.Name] = len(g.layout.loopSlot)
	}
	slices.SortStableFunc(specs, func(a, b Spec) int { return size[b.Name] - size[a.Name] })
	out := make([]Spec, 0, len(specs))
	for lo, hi := 0, len(specs)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		out = append(out, specs[lo])
		if lo != hi {
			out = append(out, specs[hi])
		}
	}
	return out
}

// One Generator reused across a mixed population yields, every time,
// exactly the program a fresh Generate builds: no stale block, callee,
// phase or layout entry and no leftover phase mark leaks from the
// previous program.
func TestGeneratorReuseMatchesFresh(t *testing.T) {
	var g Generator
	for _, s := range generatorSpecs(t) {
		got, err := g.Generate(s.Profile)
		if err != nil {
			t.Fatal(err)
		}
		// Generate does not validate its output; every program of the
		// suite and the grid sample is checked here instead.
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: generated program invalid: %v", s.Name, err)
		}
		want, err := Generate(s.Profile)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Validate(); err != nil {
			t.Fatalf("%s: generated program invalid: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused Generator diverged from a fresh Generate", s.Name)
		}
	}
}

// A warmed Generator regenerates a program without allocating.
func TestGeneratorZeroAllocs(t *testing.T) {
	for _, name := range []string{"SS-001", "LS-040", "SM-100"} {
		spec, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		var g Generator
		// Two warm-up calls: the second merges the block arena if the
		// first split it into more than maxChunks chunks.
		for i := 0; i < 2; i++ {
			if _, err := g.Generate(spec.Profile); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := g.Generate(spec.Profile); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed Generator allocated %.0f times per program, want 0", name, allocs)
		}
	}
}

// NewExecutor copies only the per-loop trip counters of a generated
// program; everything per block is shared with the program's layout.
func TestNewExecutorAllocatesPerLoop(t *testing.T) {
	prof := tinyProfile(21)
	prof.Funcs = 400
	prof.LoopFrac = 0.1
	prog, err := Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	blocks, loops := len(prog.layout.loopSlot), len(prog.layout.trips)
	// Executor struct and size-class slack, plus the counters.
	bound := 512 + 16*loops
	if loops == 0 || bound >= 8*blocks/2 {
		t.Fatalf("profile has %d blocks and %d loops; too few blocks per loop to tell", blocks, loops)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewExecutor(prog, uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := int((after.TotalAlloc - before.TotalAlloc) / runs)
	if perCall > bound {
		t.Errorf("NewExecutor allocated %d bytes per call over %d blocks and %d loops, want <= %d", perCall, blocks, loops, bound)
	}
}

// BenchmarkGenerate times one-shot generation: fresh storage per
// program, as Spec.Generate and the package-level Generate do.
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range generatorBenchSuites() {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(bc.profiles[i%len(bc.profiles)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGeneratorReuse times generation through one long-lived
// Generator, as each sim worker does.
func BenchmarkGeneratorReuse(b *testing.B) {
	for _, bc := range generatorBenchSuites() {
		b.Run(bc.name, func(b *testing.B) {
			var g Generator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Generate(bc.profiles[i%len(bc.profiles)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// generatorBenchSuites are the fixed table and the generated grid of
// the suite benchmark's suite-gen workload, as profiles.
func generatorBenchSuites() []struct {
	name     string
	profiles []Profile
} {
	profiles := func(specs []Spec) []Profile {
		out := make([]Profile, len(specs))
		for i, s := range specs {
			out[i] = s.Profile
		}
		return out
	}
	return []struct {
		name     string
		profiles []Profile
	}{
		{"fixed-table", profiles(Suite())},
		{"suite-gen", profiles(Materialize(SuiteGen{N: 2000, FootprintMin: 0.2, FootprintMax: 1.0}))},
	}
}

// longestRun returns the most instructions one record can fetch in f:
// blocks up to one whose branch always records (conditional, jump or
// return).
func longestRun(f *Function) uint64 {
	var run, longest uint64
	for _, b := range f.Blocks {
		run += uint64(b.Instrs)
		if b.Term == TermCond || b.Term == TermJump || b.Term == TermReturn {
			longest, run = max(longest, run), 0
		}
	}
	return longest
}

// The window's top counts the init function's runs only for targets the
// init function can end a stream at: at most the dispatcher's
// instructions plus its own. Past that, the last record's fetch group
// comes from a function that can repeat. Over the suite programs, whose
// init function is usually the longest straight line, that narrows the
// window for every longer target.
func TestFetchBoundsInitRunOnlyWithinInit(t *testing.T) {
	var gen Generator
	narrowed := 0
	for _, spec := range SuiteN(24) {
		prog, err := gen.Generate(spec.Profile)
		if err != nil {
			t.Fatal(err)
		}
		var repeat, initRun, initInstrs uint64
		for fi := range prog.Funcs {
			f := &prog.Funcs[fi]
			if fi != prog.InitFunc {
				repeat = max(repeat, longestRun(f))
				continue
			}
			initRun = longestRun(f)
			for _, b := range f.Blocks {
				initInstrs += uint64(b.Instrs)
			}
		}
		group := func(run uint64) uint64 { return min(max(run, 2), trace.MaxSequentialRun+1) }
		reach := dispatcherInstrs + initInstrs
		for _, target := range []uint64{1, reach / 2, reach} {
			if _, hi := prog.FetchBounds(target); hi != target+group(max(repeat, initRun))-2 {
				t.Errorf("%s: FetchBounds(%d) tops out at %d, want the init function's run counted (%d)",
					spec.Name, target, hi, target+group(max(repeat, initRun))-2)
			}
		}
		for _, target := range []uint64{reach + 1, 10 * reach, 1_000_000} {
			if _, hi := prog.FetchBounds(target); hi != target+group(repeat)-2 {
				t.Errorf("%s: FetchBounds(%d) tops out at %d, want only repeatable runs counted (%d)",
					spec.Name, target, hi, target+group(repeat)-2)
			}
		}
		if group(initRun) > group(repeat) {
			narrowed++
		}
	}
	if narrowed < 12 {
		t.Errorf("the init function's run bounds only %d of 24 suite windows; want most", narrowed)
	}
}
