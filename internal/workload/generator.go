package workload

import (
	"fmt"
	"math"
	"slices"

	"ghrpsim/internal/trace"
)

// Profile parameterizes program synthesis for one workload. Profiles are
// derived from category templates by the suite (suite.go) with seeded
// per-workload variation.
type Profile struct {
	Name     string
	Category trace.Category
	Seed     uint64

	// Funcs is the number of regular functions.
	Funcs int
	// BlocksMin/Max bound the main-chain basic blocks per function.
	BlocksMin, BlocksMax int
	// InstrsMin/Max bound instructions per basic block.
	InstrsMin, InstrsMax int
	// LoopFrac is the fraction of functions containing counted loops.
	LoopFrac float64
	// TripMin/Max bound loop trip counts.
	TripMin, TripMax int
	// CondFrac is the per-block probability of a forward conditional.
	CondFrac float64
	// CallFrac is the per-block probability of a call site.
	CallFrac float64
	// IndirectFrac is the fraction of call sites that dispatch
	// indirectly over several callees.
	IndirectFrac float64
	// ColdFrac is the per-function fraction of cold (error-path) blocks,
	// each guarded by a rarely-taken branch with probability ColdBias.
	ColdFrac float64
	ColdBias float64
	// Phases is the number of program phases; PhaseFuncs is each phase's
	// working-set size in functions.
	Phases     int
	PhaseFuncs int
	// DispatchIndirect makes the top-level dispatcher use indirect calls.
	DispatchIndirect bool
	// InitBlocks sizes the one-shot initialization function; 0 omits it.
	InitBlocks int
	// ScanFrac is the fraction of functions generated as "scans": long
	// straight-line code (table processing, logging, initialization per
	// request) whose blocks are dead on arrival. Scans are what give
	// predictive policies room to beat LRU, which lets them flush the
	// working set.
	ScanFrac float64
	// ScanLenMul multiplies the block count of scan functions. Default 3.
	ScanLenMul int
	// BurstMin/BurstMax bound how many consecutive times the dispatcher
	// repeats one sampled function before resampling. Bursty reuse makes
	// recency meaningful (LRU's strength) while scans punish it, giving
	// the policy comparison its paper-like shape. Defaults 1/1.
	BurstMin, BurstMax int
	// ZipfTheta is the within-phase popularity exponent: task weights
	// are 1/rank^ZipfTheta. Default 0.6.
	ZipfTheta float64
	// UtilityFrac is the fraction of functions generated as small leaf
	// utilities (helpers called from many contexts, never calling out).
	// Default 0.15.
	UtilityFrac float64
	// ScanWeight scales scan functions' phase weights; scans are rare
	// flush events. Default 0.08.
	ScanWeight float64
}

// Validate rejects unusable profiles.
func (p Profile) Validate() error {
	if p.Funcs < 1 {
		return fmt.Errorf("workload: profile %q needs at least one function", p.Name)
	}
	if p.BlocksMin < 2 || p.BlocksMax < p.BlocksMin {
		return fmt.Errorf("workload: profile %q block bounds [%d,%d] invalid", p.Name, p.BlocksMin, p.BlocksMax)
	}
	if p.InstrsMin < 1 || p.InstrsMax < p.InstrsMin {
		return fmt.Errorf("workload: profile %q instr bounds [%d,%d] invalid", p.Name, p.InstrsMin, p.InstrsMax)
	}
	if p.Phases < 1 || p.PhaseFuncs < 1 {
		return fmt.Errorf("workload: profile %q needs phases and phase funcs", p.Name)
	}
	if p.TripMin < 1 || p.TripMax < p.TripMin {
		return fmt.Errorf("workload: profile %q trip bounds [%d,%d] invalid", p.Name, p.TripMin, p.TripMax)
	}
	return nil
}

const (
	codeBase      = uint64(0x400000)
	dispatchBytes = uint64(64)
	funcAlign     = uint64(64)
)

// Generate synthesizes the program for a profile deterministically. It
// is a one-shot Generator: the program owns its storage outright.
func Generate(p Profile) (*Program, error) {
	var g Generator
	return g.Generate(p)
}

// Generator synthesizes programs into storage it owns and reuses:
// blocks, callee lists, functions, phases and the block layout. A
// program it returns is valid until the next Generate call on the same
// Generator, which overwrites it; a long-lived Generator therefore
// generates a stream of programs with next to no allocation. The zero
// value is ready to use. A Generator is not safe for concurrent use.
type Generator struct {
	prog    Program
	blocks  arena[Block]
	callees arena[int]
	funcs   []Function
	phases  []Phase
	phFuncs []int     // every phase's working set, back to back
	phWts   []float64 // every phase's weights, back to back
	zipf    []float64 // 1/(rank+1)^ZipfTheta by rank
	seen    []bool    // function index -> already in the phase being built
	layout  blockLayout
}

// Generate synthesizes the program for a profile into the Generator's
// storage. The result equals what the package-level Generate returns
// for p.
func (g *Generator) Generate(p Profile) (*Program, error) {
	if p.ScanLenMul == 0 {
		p.ScanLenMul = 3
	}
	if p.BurstMin == 0 {
		p.BurstMin = 1
	}
	if p.BurstMax < p.BurstMin {
		p.BurstMax = p.BurstMin
	}
	if p.ZipfTheta == 0 {
		p.ZipfTheta = 0.6
	}
	if p.ScanWeight == 0 {
		p.ScanWeight = 0.08
	}
	if p.UtilityFrac == 0 {
		p.UtilityFrac = 0.15
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := newRNG(p.Seed)
	blocks, callees := p.expectedSizes()
	g.blocks.reset(blocks)
	g.callees.reset(callees)
	g.prog = Program{
		Name:             p.Name,
		Category:         p.Category,
		InitFunc:         -1,
		DispatchAddr:     codeBase,
		DispatchIndirect: p.DispatchIndirect,
		BurstMin:         p.BurstMin,
		BurstMax:         p.BurstMax,
	}
	prog := &g.prog

	addr := codeBase + dispatchBytes
	nTotal := p.Funcs
	if p.InitBlocks > 0 {
		nTotal++
	}
	// Function index space is segmented: leaf utilities first, then
	// scan functions, then regular functions. Call sites target
	// utilities and regular functions only; scans are reached through
	// the dispatcher as whole tasks.
	g.funcs = resize(g.funcs, nTotal)
	nUtil, nScan := p.segments()
	for fi := 0; fi < p.Funcs; fi++ {
		switch {
		case fi < nUtil:
			g.funcs[fi], addr = g.genUtilityFunction(&p, r, addr)
		case fi < nUtil+nScan:
			g.funcs[fi], addr = g.genScanFunction(&p, r, addr)
		default:
			g.funcs[fi], addr = g.genFunction(&p, r, fi, addr)
		}
	}
	if p.InitBlocks > 0 {
		prog.InitFunc = p.Funcs
		g.funcs[p.Funcs] = g.genInitFunction(&p, r, addr)
	}
	prog.Funcs = g.funcs

	prog.Phases = g.genPhases(&p, r)
	g.layout.build(prog)
	prog.layout = &g.layout
	return prog, nil
}

// expectedSizes estimates how many blocks and indirect-callee entries
// the profile's program holds, from the means of its draws. Arena chunks
// are sized by it, so a one-shot Generate allocates about what the
// program needs.
func (p Profile) expectedSizes() (blocks, callees int) {
	nUtil, nScan := p.segments()
	nReg := p.Funcs - nUtil - nScan
	meanMain := float64(p.BlocksMin+p.BlocksMax) / 2
	regBlocks := float64(nReg) * meanMain
	blocks = nUtil*9/2 + int(float64(nScan)*meanMain)*p.ScanLenMul +
		int(regBlocks*(1+p.ColdFrac)) + max(p.InitBlocks, 2)
	// 4.5 callees on average per indirect call site on the main chain.
	callees = int(regBlocks * p.CallFrac * p.IndirectFrac * 9 / 2)
	return blocks, callees
}

// arena hands out runs of T from chunks it keeps across resets.
// A run never moves once handed out: when no chunk has room, a new chunk
// is added rather than an old one grown, so earlier runs stay valid.
// Kept chunks serve later programs first fit, so a stream of programs
// allocates only when one outgrows the capacity already held.
type arena[T any] struct {
	chunks [][]T
	used   []int // per chunk: elements handed out since the last reset
	want   int   // expected elements of the current program
	total  int   // elements handed out since the last reset
}

// maxChunks bounds an arena's chunk list, and so each first-fit scan.
const maxChunks = 8

// reset reclaims every run for a program expected to need want
// elements. An arena split into more than maxChunks chunks is merged
// into one.
func (a *arena[T]) reset(want int) {
	if len(a.chunks) > maxChunks {
		size := 0
		for _, c := range a.chunks {
			size += len(c)
		}
		a.chunks = append(a.chunks[:0], make([]T, size))
		a.used = a.used[:1]
	}
	clear(a.used)
	a.want, a.total = want, 0
}

// alloc returns a run of n elements: first fit over the chunks, else a
// new chunk sized for the rest of the expected program. A reused run
// still holds an earlier program's elements; callers overwrite every
// element.
func (a *arena[T]) alloc(n int) []T {
	a.total += n
	for ci, c := range a.chunks {
		if u := a.used[ci]; len(c)-u >= n {
			a.used[ci] = u + n
			return c[u : u+n : u+n]
		}
	}
	size := max(n, a.want-a.total+n, a.want/16)
	a.chunks = append(a.chunks, make([]T, size))
	a.used = append(a.used, n)
	return a.chunks[len(a.chunks)-1][:n:n]
}

// resize returns s with length n, reallocating only when its capacity
// is short, with append's geometric headroom. The contents are
// unspecified: callers overwrite them.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// genFunction builds one function starting at addr and returns it with
// the next free (aligned) address.
func (g *Generator) genFunction(p *Profile, r *rng, fi int, addr uint64) (Function, uint64) {
	nMain := r.rangeInt(p.BlocksMin, p.BlocksMax)
	nCold := int(float64(nMain) * p.ColdFrac)
	blocks := g.blocks.alloc(nMain + nCold)
	for bi := range blocks {
		blocks[bi] = Block{Instrs: r.rangeInt(p.InstrsMin, p.InstrsMax), Term: TermFall}
	}
	// The last main block returns; cold blocks come after it.
	blocks[nMain-1].Term = TermReturn

	// Counted loops over non-overlapping spans of the main chain.
	if r.float() < p.LoopFrac {
		loops := 1 + r.intn(2)
		lo := 0
		for l := 0; l < loops && lo < nMain-2; l++ {
			h := r.rangeInt(lo, nMain-3)
			maxEnd := h + 6
			if maxEnd > nMain-2 {
				maxEnd = nMain - 2
			}
			e := r.rangeInt(h+1, maxEnd)
			if blocks[e].Term != TermFall {
				break
			}
			blocks[e].Term = TermCond
			blocks[e].Target = h
			blocks[e].TripCount = r.rangeInt(p.TripMin, p.TripMax)
			lo = e + 1
		}
	}

	// Cold error paths: a rarely-taken branch into a chain of small,
	// branchy cold blocks (error handling and logging glue) that jumps
	// back to the fall-through. Cold blocks are tiny, so a cold
	// excursion costs several taken branches (BTB entries) per touched
	// cache line, as dense error-path code does.
	for c := 0; c < nCold; {
		chain := r.rangeInt(1, 4)
		if c+chain > nCold {
			chain = nCold - c
		}
		m := r.intn(nMain - 1)
		if blocks[m].Term != TermFall {
			// Guard slot taken; park the chain as unreachable cold code
			// that still occupies address space (padding between
			// functions exists in real layouts too).
			for k := 0; k < chain; k++ {
				blocks[nMain+c+k].Term = TermJump
				blocks[nMain+c+k].Target = nMain - 1
				blocks[nMain+c+k].Instrs = r.rangeInt(2, 4)
			}
			c += chain
			continue
		}
		blocks[m].Term = TermCond
		blocks[m].Target = nMain + c
		blocks[m].Bias = p.ColdBias
		for k := 0; k < chain; k++ {
			ci := nMain + c + k
			blocks[ci].Instrs = r.rangeInt(2, 4)
			blocks[ci].Term = TermJump
			if k+1 < chain {
				blocks[ci].Target = ci + 1
			} else {
				blocks[ci].Target = m + 1
			}
		}
		c += chain
	}

	// Call sites and forward conditionals on the remaining fall-throughs.
	for bi := 0; bi < nMain-1; bi++ {
		if blocks[bi].Term != TermFall {
			continue
		}
		switch x := r.float(); {
		case x < p.CallFrac:
			if r.float() < p.IndirectFrac {
				n := 2 + r.intn(6)
				callees := g.callees.alloc(n)
				for i := range callees {
					callees[i] = calleeFor(p, r, fi)
				}
				blocks[bi].Term = TermIndirectCall
				blocks[bi].Callees = callees
			} else {
				blocks[bi].Term = TermCall
				blocks[bi].Callee = calleeFor(p, r, fi)
			}
		case x < p.CallFrac+p.CondFrac:
			// Forward conditional skipping a few blocks (if/else shape).
			maxSkip := nMain - 1 - bi
			if maxSkip > 4 {
				maxSkip = 4
			}
			if maxSkip >= 1 {
				blocks[bi].Term = TermCond
				blocks[bi].Target = bi + r.rangeInt(1, maxSkip)
				// Real conditional branches are strongly biased (that is
				// why direction predictors work); a mostly-one-way branch
				// also keeps path signatures concentrated on the dominant
				// path instead of splitting them exponentially.
				switch {
				case r.float() < 0.3:
					blocks[bi].Bias = 0.02 + 0.13*r.float() // rarely taken
				case r.float() < 0.75:
					blocks[bi].Bias = 0.85 + 0.13*r.float() // mostly taken
				default:
					blocks[bi].Bias = 0.3 + 0.4*r.float() // genuinely mixed
				}
			}
		}
	}

	return Function{Blocks: blocks}, g.place(blocks, addr, false)
}

// segments returns the sizes of the utility and scan segments of the
// function index space.
func (p Profile) segments() (nUtil, nScan int) {
	nUtil = int(float64(p.Funcs) * p.UtilityFrac)
	nScan = int(float64(p.Funcs-nUtil) * p.ScanFrac)
	if nUtil+nScan > p.Funcs {
		nScan = p.Funcs - nUtil
	}
	return nUtil, nScan
}

// utilityFor picks a leaf utility function as a callee.
func utilityFor(p *Profile, r *rng) int {
	nUtil, _ := p.segments()
	if nUtil < 1 {
		return 0
	}
	return r.intn(nUtil)
}

// genUtilityFunction builds a small leaf helper: a handful of blocks, no
// calls, an optional tight loop. Utilities are entered from many caller
// contexts; their reuse fate depends on who called them, which is what
// path-history prediction can see and PC-only prediction cannot.
func (g *Generator) genUtilityFunction(p *Profile, r *rng, addr uint64) (Function, uint64) {
	n := r.rangeInt(3, 6)
	blocks := g.blocks.alloc(n)
	for bi := range blocks {
		blocks[bi] = Block{Instrs: r.rangeInt(p.InstrsMin, p.InstrsMax), Term: TermFall}
	}
	blocks[n-1].Term = TermReturn
	if r.float() < 0.4 && n >= 3 {
		blocks[n-2].Term = TermCond
		blocks[n-2].Target = n - 3
		blocks[n-2].TripCount = r.rangeInt(2, 6)
	}
	return Function{Blocks: blocks}, g.place(blocks, addr, false)
}

// calleeFor picks a callee: often a leaf utility, otherwise a nearby
// regular function (spatial locality), occasionally any regular
// function. Scans are never callees.
func calleeFor(p *Profile, r *rng, fi int) int {
	if r.float() < 0.5 {
		return utilityFor(p, r)
	}
	nUtil, nScan := p.segments()
	regBase := nUtil + nScan
	if regBase >= p.Funcs {
		return utilityFor(p, r)
	}
	if r.float() < 0.7 {
		lo, hi := fi-5, fi+5
		if lo < regBase {
			lo = regBase
		}
		if hi > p.Funcs-1 {
			hi = p.Funcs - 1
		}
		if hi >= lo {
			c := r.rangeInt(lo, hi)
			if c != fi {
				return c
			}
		}
	}
	c := regBase + r.intn(p.Funcs-regBase)
	if c == fi {
		c = regBase + (c+1-regBase)%(p.Funcs-regBase)
	}
	return c
}

// genScanFunction builds a long straight-line function with no loops:
// every block is touched exactly once per invocation, so its blocks are
// dead on arrival unless the function recurs quickly. Scans call shared
// utility functions occasionally (a log pass calls formatting helpers, a
// GC pass calls visitors); a utility entered along a scan path will not
// be re-entered along that path soon, while the same utility entered
// from a hot caller is about to be reused — the caller-context pattern
// that distinguishes path-history prediction from PC-only prediction.
func (g *Generator) genScanFunction(p *Profile, r *rng, addr uint64) (Function, uint64) {
	n := r.rangeInt(p.BlocksMin, p.BlocksMax) * p.ScanLenMul
	blocks := g.blocks.alloc(n)
	for bi := range blocks {
		blocks[bi] = Block{Instrs: r.rangeInt(p.InstrsMin, p.InstrsMax), Term: TermFall}
		if bi >= n-1 {
			continue
		}
		// Scans are branchy, like real cold-code walks: dispatch
		// tables, error formatting, serialization glue. Each taken
		// terminator is a BTB entry, so a scan pass rotates the BTB at
		// least as hard as the I-cache.
		switch x := r.float(); {
		case x < 0.02:
			blocks[bi].Term = TermCall
			blocks[bi].Callee = utilityFor(p, r)
		case x < 0.38:
			blocks[bi].Term = TermJump
			blocks[bi].Target = bi + 1
		case x < 0.52:
			// Near-deterministic conditionals: the walk takes the same
			// path on almost every pass, so the path signatures of scan
			// lines recur and the predictor can learn the whole scan
			// from a couple of passes.
			blocks[bi].Term = TermCond
			max := bi + 2
			if max > n-1 {
				max = n - 1
			}
			blocks[bi].Target = r.rangeInt(bi+1, max)
			blocks[bi].Bias = 0.98
		}
	}
	blocks[n-1].Term = TermReturn
	return Function{Blocks: blocks, Scan: true}, g.place(blocks, addr, false)
}

// genInitFunction builds the straight-line one-shot init function at
// addr, the last function of the program.
func (g *Generator) genInitFunction(p *Profile, r *rng, addr uint64) Function {
	n := p.InitBlocks
	if n < 2 {
		n = 2
	}
	blocks := g.blocks.alloc(n)
	for bi := range blocks {
		blocks[bi] = Block{Instrs: r.rangeInt(p.InstrsMin, p.InstrsMax), Term: TermFall}
	}
	blocks[n-1].Term = TermReturn
	g.place(blocks, addr, true) // Run calls it once, first; nothing else does
	return Function{Blocks: blocks}
}

// place lays blocks out from addr and returns the next function's
// aligned address. It also folds the function's fetch runs into the
// program's (fetchRuns); once marks a function that executes at most
// once.
//
// A run ends at a conditional, jump or return (end = 1). The loop masks
// with end instead of branching on the terminator, which the generator
// draws at random: with a branch, suitebench's suite-gen workload lost
// 4–5% of its workloads/s (three of three pairs, 2-CPU Xeon host).
func (g *Generator) place(blocks []Block, addr uint64, once bool) uint64 {
	start, longest, run := addr, uint64(0), uint64(0)
	for bi := range blocks {
		b := &blocks[bi]
		b.Addr = addr
		addr += uint64(b.Instrs) * InstrBytes
		end := uint64(1<<TermCond|1<<TermJump|1<<TermReturn) >> b.Term & 1
		run += uint64(b.Instrs)
		longest = max(longest, run&-end)
		run &= end - 1
	}
	g.prog.runs.add(longest, (addr-start)/InstrBytes, once)
	return (addr + funcAlign - 1) &^ (funcAlign - 1)
}

// genPhases builds the phase schedule: each phase works over a distinct
// (but overlapping) weighted subset of the functions, with Zipf-like
// weights so every phase has hot and lukewarm functions.
func (g *Generator) genPhases(p *Profile, r *rng) []Phase {
	k := p.PhaseFuncs
	if k > p.Funcs {
		k = p.Funcs
	}
	nUtil, nScan := p.segments()
	// Every phase holds all scans and then fills up to k functions, so
	// max(k, nScan) bounds its working set.
	width := max(k, nScan)
	phases := resize(g.phases, p.Phases)
	g.phases = phases
	g.phFuncs = resize(g.phFuncs, p.Phases*width)
	g.phWts = resize(g.phWts, p.Phases*width)
	// A flattened Zipf keeps hot functions without letting the head
	// monopolize execution: the tail must recur often enough to create
	// real capacity pressure.
	g.zipf = resize(g.zipf, width)
	for i := range g.zipf {
		g.zipf[i] = 1.0 / math.Pow(float64(i+1), p.ZipfTheta)
	}
	seen := resize(g.seen, p.Funcs)
	g.seen = seen
	clear(seen)
	var prev []int
	for pi := range phases {
		lo, hi := pi*width, (pi+1)*width
		fset := g.phFuncs[lo:lo:hi]
		// Scans are global services (GC passes, log flushes): every
		// phase can reach them.
		for si := nUtil; si < nUtil+nScan; si++ {
			fset = append(fset, si)
			seen[si] = true
		}
		// Carry half of the previous phase's working set.
		for _, f := range prev {
			if len(fset) >= k/2 {
				break
			}
			if !seen[f] {
				fset = append(fset, f)
				seen[f] = true
			}
		}
		for len(fset) < k {
			f := r.intn(p.Funcs)
			if !seen[f] {
				fset = append(fset, f)
				seen[f] = true
			}
		}
		weights := g.phWts[lo : lo+len(fset) : hi]
		for i, f := range fset {
			// Scans are flush events (GC passes, log flushes, table
			// walks): large but infrequent. Their weight is absolute —
			// independent of popularity rank — so the flush frequency is
			// controlled by ScanWeight alone.
			if g.funcs[f].Scan {
				weights[i] = p.ScanWeight
			} else {
				weights[i] = g.zipf[i]
			}
			seen[f] = false
		}
		phases[pi] = Phase{Funcs: fset, Weights: weights}
		prev = fset
	}
	return phases
}
