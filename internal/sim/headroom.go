package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/stats"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// HeadroomRow summarizes one policy against the offline optimum.
type HeadroomRow struct {
	Policy   frontend.PolicyKind
	MeanMPKI float64
	// GapClosed is the mean fraction of the per-workload LRU-to-OPT
	// miss gap the policy closes (1 = optimal, 0 = LRU, negative =
	// worse than LRU). Workloads without a gap are skipped.
	GapClosed float64
}

// HeadroomReport bounds the suite with Belady's OPT: how close each
// online policy comes to the offline optimum on the identical access
// stream (including fetch-buffer coalescing and the warm-up window).
type HeadroomReport struct {
	LRUMean  float64
	OPTMean  float64
	Rows     []HeadroomRow
	Included int // workloads with a positive LRU-to-OPT gap
	// Failed counts workloads skipped on a keep-going run; the means
	// cover only the workloads that completed.
	Failed int
}

// ComputeHeadroom runs the suite's I-cache under every policy plus the
// OPT oracle. This is an extension beyond the paper's evaluation,
// bounding how much of the achievable improvement GHRP captures. Unlike
// RunContext, the OPT oracle needs the whole access stream at once, so
// each workload's records are buffered (one workload at a time); the
// context is checked between workloads and per-workload failures abort
// the computation. The online-policy replays share the result cache
// with RunContext when opts.Cache is set — the buffered replay is
// bit-identical to the streaming one, so cells a main suite run already
// simulated are loaded instead of replayed (the OPT pass itself is
// never cached: its state is not a frontend.Result).
//
// Per-workload failures — including panics, which are contained to a
// PanicError — abort the computation, or with Options.KeepGoing skip
// the workload (counted in HeadroomReport.Failed) so one bad workload
// cannot sink a long bound computation.
func ComputeHeadroom(ctx context.Context, opts Options) (HeadroomReport, error) {
	opts, err := opts.prepare()
	if err != nil {
		return HeadroomReport{}, err
	}
	var lruV, optV []float64
	polV := map[frontend.PolicyKind][]float64{}
	failed := 0

	for wi := 0; wi < opts.Source.Len(); wi++ {
		if err := ctx.Err(); err != nil {
			return HeadroomReport{}, err
		}
		spec := opts.Source.At(wi)
		lru, optMPKI, pol, err := headroomWorkload(opts, spec)
		if err != nil {
			if opts.KeepGoing {
				failed++
				continue
			}
			return HeadroomReport{}, fmt.Errorf("sim: workload %s: %w", spec.Name, err)
		}
		lruV = append(lruV, lru)
		optV = append(optV, optMPKI)
		for _, k := range opts.Policies {
			polV[k] = append(polV[k], pol[k])
		}
	}

	rep := HeadroomReport{LRUMean: stats.Mean(lruV), OPTMean: stats.Mean(optV), Failed: failed}
	// Aggregate the gap over workloads rather than averaging
	// per-workload ratios, which tiny-gap outliers dominate.
	var lruSum, optSum float64
	cnt := 0
	for wi := range lruV {
		if lruV[wi]-optV[wi] > 1e-6 {
			lruSum += lruV[wi]
			optSum += optV[wi]
			cnt++
		}
	}
	rep.Included = cnt
	for _, k := range opts.Policies {
		row := HeadroomRow{Policy: k, MeanMPKI: stats.Mean(polV[k])}
		var polSum float64
		for wi := range lruV {
			if lruV[wi]-optV[wi] > 1e-6 {
				polSum += polV[k][wi]
			}
		}
		row.GapClosed = opt.Headroom(lruSum, polSum, optSum)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// headroomWorkload computes one workload's LRU, OPT and per-policy
// I-cache MPKI values. A panic anywhere in the workload's generation,
// replay or OPT pass is contained to a PanicError.
func headroomWorkload(opts Options, spec workload.Spec) (lru, optMPKI float64, pol map[frontend.PolicyKind]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	recs, err := specRecords(opts, spec)
	if err != nil {
		return 0, 0, nil, err
	}
	// Count the stream once and share the warm-up window across the
	// policies and the OPT pass.
	total, err := frontend.CountInstructions(recs, opts.Config.InstrBytes, uint64(opts.Config.ICache.BlockBytes))
	if err != nil {
		return 0, 0, nil, err
	}
	warm := opts.Config.WarmupFor(total)
	target := targetFor(spec, opts.Scale)
	pol = map[frontend.PolicyKind]float64{}
	for _, k := range opts.Policies {
		res, err := headroomPolicyResult(opts, spec, k, target, warm, recs)
		if err != nil {
			return 0, 0, nil, err
		}
		pol[k] = res.ICacheMPKI()
		if k == frontend.PolicyLRU {
			lru = res.ICacheMPKI()
		}
	}
	blocks, skip, err := frontend.BlockStream(recs, opts.Config, warm)
	if err != nil {
		return 0, 0, nil, err
	}
	ost, err := opt.Simulate(blocks, opts.Config.ICache.Sets(), opts.Config.ICache.Ways, skip)
	if err != nil {
		return 0, 0, nil, err
	}
	return lru, ost.MPKI(total - warm), pol, nil
}

// headroomPolicyResult produces one (workload, policy) cell for the
// headroom report, consulting and filling the result cache when one is
// attached. A one-lane fan-out replaying the buffered stream under the
// same warm-up window is bit-identical to RunContext's streaming
// replay, so the two entry points share cache entries.
func headroomPolicyResult(opts Options, spec workload.Spec, k frontend.PolicyKind, target, warm uint64, recs []trace.Record) (frontend.Result, error) {
	var key resultcache.Key
	if opts.Cache != nil {
		var err error
		key, err = resultcache.KeyFor(spec, opts.Config, k, opts.ExecSeed, target)
		if err != nil {
			return frontend.Result{}, err
		}
		if res, ok := opts.Cache.Get(key); ok && res.Policy == k {
			return res, nil
		}
	}
	fo, err := frontend.NewFanOut(opts.Config, []frontend.PolicyKind{k}, warm)
	if err != nil {
		return frontend.Result{}, err
	}
	for _, r := range recs {
		fo.Process(r)
	}
	res := fo.Results()[0]
	if opts.Cache != nil {
		if err := opts.Cache.Put(key, res); err != nil {
			return frontend.Result{}, err
		}
	}
	return res, nil
}

// specRecords generates one workload's record stream per the run options.
func specRecords(opts Options, spec workload.Spec) ([]trace.Record, error) {
	prog, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	recs, err := frontend.GenerateRecords(prog, opts.ExecSeed, targetFor(spec, opts.Scale))
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Render prints the headroom table.
func (r HeadroomReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I-cache headroom vs Belady's OPT (mean over %d gapped workloads)\n", r.Included)
	if r.Failed > 0 {
		fmt.Fprintf(&b, "  (%d workloads failed and were skipped)\n", r.Failed)
	}
	fmt.Fprintf(&b, "  %-8s %10s %12s\n", "policy", "mean MPKI", "gap closed")
	fmt.Fprintf(&b, "  %-8s %10.3f %12s\n", "OPT", r.OPTMean, "100%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8s %10.3f %11.1f%%\n", row.Policy, row.MeanMPKI, row.GapClosed*100)
	}
	return b.String()
}
