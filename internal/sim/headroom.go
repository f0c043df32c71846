package sim

import (
	"errors"
	"fmt"
	"strings"

	"ghrpsim/internal/frontend"
	"ghrpsim/internal/opt"
	"ghrpsim/internal/stats"
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

// HeadroomVariant returns v with Belady's OPT added, bounding how much
// of the achievable improvement each policy captures (an extension
// beyond the paper). v's policies must include LRU, which the gap is
// measured from. OPT runs inside the grid's tasks, over the demand
// accesses that the fused pass of v's front group taps
// (frontend.AccessLog), so it sees exactly the stream the policies saw
// and costs no second execution of the program. A workload whose cells
// of that group the cache all answered streams one LRU lane only to
// fill the log; OPT results are never cached.
func HeadroomVariant(v Variant) Variant {
	v.headroom = true
	return v
}

// Headroom reads the headroom report from the measurements of a
// HeadroomVariant. On a keep-going run it skips the failed workloads
// (HeadroomReport.Failed), so one bad workload cannot sink a long bound
// computation.
func Headroom(m *Measurements) (HeadroomReport, error) {
	if m.opt == nil {
		return HeadroomReport{}, errors.New("sim: headroom needs the measurements of a HeadroomVariant")
	}
	// Completed keeps the workloads that finished every cell, and so
	// their OPT pass; optV keeps the same ones.
	done := m.Completed()
	var optV []float64
	for wi, raw := range m.Raw {
		if raw.Err == nil {
			optV = append(optV, m.opt.mpki[wi])
		}
	}
	lruV := done.ICacheMPKI[frontend.PolicyLRU]

	rep := HeadroomReport{LRUMean: stats.Mean(lruV), OPTMean: stats.Mean(optV), Failed: len(m.Specs) - len(done.Specs)}
	// Aggregate the gap over workloads rather than averaging
	// per-workload ratios, which tiny-gap outliers dominate.
	var gapped []int
	var lruSum, optSum float64
	for i := range lruV {
		if lruV[i]-optV[i] > 1e-6 {
			gapped = append(gapped, i)
			lruSum += lruV[i]
			optSum += optV[i]
		}
	}
	rep.Included = len(gapped)
	for _, k := range m.Policies {
		polV := done.ICacheMPKI[k]
		var polSum float64
		for _, i := range gapped {
			polSum += polV[i]
		}
		rep.Rows = append(rep.Rows, HeadroomRow{Policy: k, MeanMPKI: stats.Mean(polV),
			GapClosed: opt.Headroom(lruSum, polSum, optSum)})
	}
	return rep, nil
}

// optSink collects a headroom run's per-workload OPT I-cache MPKI.
// Each slot is written by the one worker that owns the workload's task,
// so it needs no lock.
type optSink struct {
	mpki []float64
	have []bool
}

// optMPKI runs Belady's MIN over the demand accesses one workload's
// fused pass logged. res is any lane's result of that pass: OPT counts
// the misses past the skip index over its counted instructions, the
// window every lane's MPKI covers.
func optMPKI(cfg frontend.Config, log *frontend.AccessLog, res frontend.Result) (float64, error) {
	ost, err := opt.Simulate(log.Blocks, cfg.ICache.Sets(), cfg.ICache.Ways, log.Skip)
	if err != nil {
		return 0, err
	}
	return ost.MPKI(res.CountedInstrs), nil
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
