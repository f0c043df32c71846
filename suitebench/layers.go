package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/indirect"
	"ghrpsim/internal/perceptron"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// sampleEvery picks the layer probes' sample: every fifth workload.
const sampleEvery = 5

// probeResult sums the serial layer timings over the sample.
type probeResult struct {
	workloads int
	records   float64 // records of the sampled streams, the ns/record base

	generate, count, emit, fetch, branch, target time.Duration
	replay1, fused                               time.Duration
	pair                                         []time.Duration // [LRU, P] for each of frontend.PaperPolicies
	fusedAllocs                                  uint64

	putUS, getUS []float64
	entryBytes   float64
	slowdown     float64 // the host's, measured around the probes (see calibrate.go)

	// verify is non-nil when a fused result differs from its one-lane
	// replay, or a cache entry does not read back as written.
	verify error
}

// budget mirrors sim.Run's per-workload instruction target: the default
// budget scaled, floored at 1000 instructions.
func budget(spec workload.Spec, scale float64) uint64 {
	t := uint64(float64(spec.DefaultInstructions) * scale)
	if t < 1000 {
		t = 1000
	}
	return t
}

// probeRepeats is how many rounds of layer calls a sampled workload
// gets. Each layer's fastest call counts: interference from other work
// on the host only ever slows a call down. Rounds call every layer in
// turn, so no layer always runs first on a freshly generated program.
const probeRepeats = 5

// prober times one sample's layer calls; every call is a span under
// its workload's probe span.
type prober struct {
	*probeResult
	b     *bench
	cfg   frontend.Config
	cache *resultcache.Cache
	tr    *tracer
	id    string
}

// probe times calls into each layer's public entry points, one at a
// time, on every fifth workload of the suite. Layers that consume
// records get a buffered copy of the stream, so each timing is the
// layer's own.
func (b *bench) probe(ctx context.Context, tr *tracer) (*probeResult, error) {
	dir, err := os.MkdirTemp("", "suitebench-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir)
	if err != nil {
		return nil, err
	}
	p := &prober{probeResult: &probeResult{pair: make([]time.Duration, len(frontend.PaperPolicies()))},
		b: b, cfg: frontend.DefaultConfig(), cache: cache, tr: tr, id: b.def.name + "/probe"}
	before := calibrate()
	root := tr.open(p.id, "probes", 0, time.Now())
	var specs []workload.Spec
	var base, fused [][]frontend.Result
	src := b.full.source()
	for i := 0; i < src.Len(); i += sampleEvery {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := src.At(i)
		lanes, res, err := p.workload(tr.open(p.id, "probe.workload", root, time.Now()), spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		specs, base, fused = append(specs, spec), append(base, lanes), append(fused, res)
		p.workloads++
	}
	tr.close(root, time.Now())
	p.slowdown = float64(before+calibrate()) / 2 / float64(calibrationNominal)
	if err := verifyIdentical(specs, b.def.policies, base, fused); err != nil && p.verify == nil {
		p.verify = err
	}
	p.entryBytes, err = meanFileSize(dir)
	return p.probeResult, err
}

// span times f as a span under parent.
func (p *prober) span(parent int, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	p.tr.add(p.id, name, parent, start, end)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end.Sub(start), nil
}

// workload times every layer on one workload and returns its one-lane
// replays beside its fused results.
func (p *prober) workload(parent int, spec workload.Spec) (lanes, fused []frontend.Result, err error) {
	defer func() { p.tr.close(parent, time.Now()) }()
	b, cfg := p.b, p.cfg
	var prog *workload.Program
	best := time.Duration(math.MaxInt64)
	for r := 0; r < probeRepeats; r++ {
		d, err := p.span(parent, "workload.generate", func() (err error) {
			prog, err = spec.Generate()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		best = min(best, d)
	}
	p.generate += best
	target := budget(spec, b.def.scale)
	var recs []trace.Record
	if _, err := p.span(parent, "probe.buffer", func() (err error) {
		recs, err = frontend.GenerateRecords(prog, b.seed, target)
		return err
	}); err != nil {
		return nil, nil, err
	}

	// The count runs first in every round: the fan-outs take their
	// warm-up window from it.
	var counts resultcache.Counts
	var warm uint64
	fanOut := func(kinds []frontend.PolicyKind, out *[]frontend.Result) func() error {
		return func() (err error) {
			*out, err = frontend.SimulateFanOut(cfg, kinds, prog, b.seed, target, warm, frontend.StreamOptions{})
			return err
		}
	}
	type layer struct {
		name string
		sum  *time.Duration
		run  func() error
	}
	var scratch []frontend.Result
	layers := []layer{
		{"frontend.count", &p.count, func() (err error) {
			counts.Instructions, counts.Records, err = frontend.CountProgram(cfg, prog, b.seed, target, frontend.StreamOptions{})
			warm = cfg.WarmupFor(counts.Instructions)
			return err
		}},
		{"workload.emit", &p.emit, func() error {
			_, err := workload.Emit(prog, b.seed, target, func(trace.Record) error { return nil })
			return err
		}},
		{"trace.fetch", &p.fetch, func() error { return fetchAll(cfg, recs) }},
		{"perceptron", &p.branch, func() error { return predictDirections(cfg, recs) }},
		{"indirect", &p.target, func() error { return predictTargets(recs) }},
		{"frontend.replay1", &p.replay1, fanOut([]frontend.PolicyKind{frontend.PolicyLRU}, &scratch)},
	}
	for i, k := range frontend.PaperPolicies() {
		layers = append(layers, layer{"frontend.pair." + k.String(), &p.pair[i],
			fanOut([]frontend.PolicyKind{frontend.PolicyLRU, k}, &scratch)})
	}
	fusedAt := len(layers)
	layers = append(layers, layer{"frontend.fused", &p.fused, fanOut(b.def.policies, &fused)})

	fastest := make([]time.Duration, len(layers))
	for i := range fastest {
		fastest[i] = math.MaxInt64
	}
	for r := 0; r < probeRepeats; r++ {
		for i, l := range layers {
			var before, after runtime.MemStats
			if i == fusedAt {
				runtime.ReadMemStats(&before)
			}
			d, err := p.span(parent, l.name, l.run)
			if err != nil {
				return nil, nil, err
			}
			if i == fusedAt {
				runtime.ReadMemStats(&after)
				p.fusedAllocs += (after.Mallocs - before.Mallocs) / probeRepeats
			}
			fastest[i] = min(fastest[i], d)
		}
	}
	for i, l := range layers {
		*l.sum += fastest[i]
	}
	p.records += float64(counts.Records)

	lanes = make([]frontend.Result, len(b.def.policies))
	if _, err := p.span(parent, "probe.verify", func() (err error) {
		for pi, k := range b.def.policies {
			if lanes[pi], err = frontend.SimulateProgramStream(cfg, k, prog, b.seed, target, warm, frontend.StreamOptions{}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return lanes, fused, p.cacheRoundTrip(parent, spec, target, fused, counts)
}

// cacheRoundTrip times Put of each of the workload's result and count
// entries into the probe's fresh cache, then Get of each back.
func (p *prober) cacheRoundTrip(parent int, spec workload.Spec, target uint64, res []frontend.Result, counts resultcache.Counts) error {
	b := p.b
	keys := make([]resultcache.Key, len(res))
	for pi, k := range b.def.policies {
		key, err := resultcache.KeyFor(spec, p.cfg, k, b.seed, target)
		if err != nil {
			return err
		}
		keys[pi] = key
	}
	countKey, err := resultcache.CountKeyFor(spec, p.cfg, b.seed, target)
	if err != nil {
		return err
	}
	timed := func(name string, sink *[]float64, f func() error) error {
		d, err := p.span(parent, name, f)
		*sink = append(*sink, float64(d)/float64(time.Microsecond))
		return err
	}
	for pi := range keys {
		if err := timed("resultcache.put", &p.putUS, func() error { return p.cache.Put(keys[pi], res[pi]) }); err != nil {
			return err
		}
	}
	if err := timed("resultcache.put", &p.putUS, func() error { return p.cache.PutCount(countKey, counts) }); err != nil {
		return err
	}
	for pi := range keys {
		var got frontend.Result
		var ok bool
		timed("resultcache.get", &p.getUS, func() error { got, ok = p.cache.Get(keys[pi]); return nil })
		if (!ok || got != res[pi]) && p.verify == nil {
			p.verify = fmt.Errorf("result cache entry for %s/%v did not read back as written", spec.Name, b.def.policies[pi])
		}
	}
	var got resultcache.Counts
	var ok bool
	timed("resultcache.get", &p.getUS, func() error { got, ok = p.cache.GetCount(countKey); return nil })
	if (!ok || got != counts) && p.verify == nil {
		p.verify = fmt.Errorf("count cache entry for %s did not read back as written", spec.Name)
	}
	return nil
}

// verifyIdentical asserts the fused results are bit-identical to the
// one-lane replays, per workload and policy.
func verifyIdentical(specs []workload.Spec, kinds []frontend.PolicyKind, base, fused [][]frontend.Result) error {
	if len(base) != len(fused) {
		return fmt.Errorf("one-lane replays cover %d workloads, fused %d", len(base), len(fused))
	}
	for wi := range base {
		if len(base[wi]) != len(kinds) || len(fused[wi]) != len(kinds) {
			return fmt.Errorf("workload %s returned %d one-lane / %d fused results for %d policies",
				specs[wi].Name, len(base[wi]), len(fused[wi]), len(kinds))
		}
		for pi := range kinds {
			if fused[wi][pi] != base[wi][pi] {
				return fmt.Errorf("fused replay diverged from its one-lane replay on %s/%v", specs[wi].Name, kinds[pi])
			}
		}
	}
	return nil
}

// fetchAll reconstructs the fetch stream of recs.
func fetchAll(cfg frontend.Config, recs []trace.Record) error {
	f, err := trace.NewFetcher(cfg.InstrBytes, uint64(cfg.ICache.BlockBytes))
	if err != nil {
		return err
	}
	var spans []trace.BlockSpan
	for _, r := range recs {
		spans, _ = f.NextSpans(r, spans[:0])
	}
	return nil
}

// predictDirections drives the direction predictor over recs the way
// the front end does: predict and train conditional branches, fold every
// other transfer into path history.
func predictDirections(cfg frontend.Config, recs []trace.Record) error {
	p, err := perceptron.New(cfg.Branch)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Type.Conditional() {
			p.Update(p.Predict(r.PC), r.PC, r.Taken)
		} else {
			p.PushUnconditional(r.PC)
		}
	}
	return nil
}

// predictTargets drives the indirect target predictor over recs'
// indirect calls and jumps, as the front end does.
func predictTargets(recs []trace.Record) error {
	p, err := indirect.New(indirect.Config{})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Type == trace.IndirectCall || r.Type == trace.IndirectJump {
			p.Update(p.Predict(r.PC), r.PC, r.Target)
		}
	}
	return nil
}

// meanFileSize returns the mean size of the regular files under dir.
func meanFileSize(dir string) (float64, error) {
	var total, n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		n++
		return nil
	})
	if n == 0 {
		return 0, err
	}
	return float64(total) / float64(n), err
}
