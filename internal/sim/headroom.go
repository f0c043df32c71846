package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/stats"
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
// bounding how much of the achievable improvement GHRP captures. The
// online policies run through RunContext, so they honor every Options
// knob a suite run does — Parallelism, the result cache, timeouts,
// retries, fault injection and the Observer — and share cache cells
// with it. The OPT oracle then needs each completed workload's whole
// access stream at once, so it buffers one workload at a time, checking
// the context between workloads (the OPT pass itself is never cached:
// its state is not a frontend.Result). The roster must include LRU,
// which the gap is measured from.
//
// Per-workload failures — including panics, which are contained to a
// PanicError — abort the computation, or with Options.KeepGoing skip
// the workload (counted in HeadroomReport.Failed) so one bad workload
// cannot sink a long bound computation.
func ComputeHeadroom(ctx context.Context, opts Options) (HeadroomReport, error) {
	if len(opts.Policies) > 0 && !slices.Contains(opts.Policies, frontend.PolicyLRU) {
		return HeadroomReport{}, errors.New("sim: headroom needs LRU in Options.Policies: the gap each policy closes is measured from LRU")
	}
	m, err := RunContext(ctx, opts)
	if err != nil {
		return HeadroomReport{}, err
	}
	opts = m.Options
	done := m.Completed()
	failed := len(m.Specs) - len(done.Specs)
	// kept indexes done's workloads whose OPT pass succeeded; optV is
	// aligned with it.
	var kept []int
	var optV []float64
	for wi, spec := range done.Specs {
		if err := ctx.Err(); err != nil {
			return HeadroomReport{}, err
		}
		optMPKI, err := headroomOPT(opts, spec)
		if err != nil {
			if opts.KeepGoing {
				failed++
				continue
			}
			return HeadroomReport{}, fmt.Errorf("sim: workload %s: %w", spec.Name, err)
		}
		kept = append(kept, wi)
		optV = append(optV, optMPKI)
	}
	keptOf := func(k frontend.PolicyKind) []float64 {
		v := make([]float64, len(kept))
		for i, wi := range kept {
			v[i] = done.ICacheMPKI[k][wi]
		}
		return v
	}
	lruV := keptOf(frontend.PolicyLRU)

	rep := HeadroomReport{LRUMean: stats.Mean(lruV), OPTMean: stats.Mean(optV), Failed: failed}
	// Aggregate the gap over workloads rather than averaging
	// per-workload ratios, which tiny-gap outliers dominate.
	var lruSum, optSum float64
	cnt := 0
	for i := range lruV {
		if lruV[i]-optV[i] > 1e-6 {
			lruSum += lruV[i]
			optSum += optV[i]
			cnt++
		}
	}
	rep.Included = cnt
	for _, k := range opts.Policies {
		polV := keptOf(k)
		row := HeadroomRow{Policy: k, MeanMPKI: stats.Mean(polV)}
		var polSum float64
		for i := range lruV {
			if lruV[i]-optV[i] > 1e-6 {
				polSum += polV[i]
			}
		}
		row.GapClosed = opt.Headroom(lruSum, polSum, optSum)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// headroomOPT computes one workload's OPT I-cache MPKI on the stream
// the policy lanes replayed: the same records, fetch-buffer coalescing
// and warm-up window. A panic anywhere in the workload's generation or
// OPT pass is contained to a PanicError.
func headroomOPT(opts Options, spec workload.Spec) (optMPKI float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	prog, err := spec.Generate()
	if err != nil {
		return 0, err
	}
	recs, err := frontend.GenerateRecords(prog, opts.ExecSeed, targetFor(spec, opts.Scale))
	if err != nil {
		return 0, err
	}
	total, err := frontend.CountInstructions(recs, opts.Config.InstrBytes, uint64(opts.Config.ICache.BlockBytes))
	if err != nil {
		return 0, err
	}
	warm := opts.Config.WarmupFor(total)
	blocks, skip, err := frontend.BlockStream(recs, opts.Config, warm)
	if err != nil {
		return 0, err
	}
	ost, err := opt.Simulate(blocks, opts.Config.ICache.Sets(), opts.Config.ICache.Ways, skip)
	if err != nil {
		return 0, err
	}
	return ost.MPKI(total - warm), nil
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
