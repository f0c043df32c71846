package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"ghrpsim/internal/frontend"
)

// metric is one named measurement. Value is the median over N samples
// (repetitions, or the calls a layer value aggregates).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// counts are deterministic: identical across every run at one seed.
type counts struct {
	Workloads    int     `json:"workloads"`
	CellsPerPass int     `json:"cells_per_pass"`
	Instructions float64 `json:"instructions"`
	LaneRecords  float64 `json:"lane_records"`
	Dispatches   int     `json:"dispatches"`
}

// mpkiRow is one policy's suite-mean simulated MPKI beside the paper's.
type mpkiRow struct {
	Policy      string   `json:"policy"`
	ICache      float64  `json:"icache_mpki"`
	BTB         float64  `json:"btb_mpki"`
	PaperICache *float64 `json:"paper_icache_mpki,omitempty"`
	PaperBTB    *float64 `json:"paper_btb_mpki,omitempty"`
}

// paperMPKI is PAPER.md §1's headline table: I-cache and BTB MPKI over
// the 662 CBP-5 traces.
var paperMPKI = map[frontend.PolicyKind][2]float64{
	frontend.PolicyLRU:    {1.05, 4.58},
	frontend.PolicyRandom: {1.14, 4.81},
	frontend.PolicySRRIP:  {1.02, 4.17},
	frontend.PolicySDBP:   {1.10, 4.57},
	frontend.PolicyGHRP:   {0.86, 3.21},
}

type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Revision: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Revision = s.Value
			case "vcs.modified":
				fp.Modified = s.Value == "true"
			}
		}
	}
	return fp
}

// report is everything one run measured and checked.
type report struct {
	Workload  string        `json:"workload"`
	Why       string        `json:"why"`
	Seed      uint64        `json:"seed"`
	Traced    bool          `json:"traced"`
	Host      fingerprint   `json:"host"`
	Reps      int           `json:"repetitions"`
	Counts    counts        `json:"counts"`
	Digest    string        `json:"digest"`
	Checks    []checkResult `json:"checks"`
	Metrics   []metric      `json:"metrics"`
	MPKI      []mpkiRow     `json:"mpki"`
	Layers    []layerTime   `json:"layers,omitempty"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
}

func newReport(b *bench, traced bool) *report {
	return &report{Workload: b.def.name, Why: b.def.why, Seed: b.seed, Traced: traced, Host: hostFingerprint()}
}

// count adds a repetition's operations: every cell delivered and every
// shard dispatch is attempted; failed shard attempts and retried
// requests fail.
func (rep *report) count(r repResult) {
	rep.Reps++
	for _, p := range r.passes {
		rep.Attempted += p.cells + p.dispatches
		rep.Failed += p.failed
	}
}

// verdict records one check, which passed when err is nil.
func (rep *report) verdict(name string, err error) {
	rep.Attempted++
	if err == nil {
		rep.Checks = append(rep.Checks, checkResult{Name: name, OK: true})
		return
	}
	rep.Failed++
	rep.Checks = append(rep.Checks, checkResult{Name: name, Detail: err.Error()})
}

// correct reports whether every operation and check passed.
func (rep *report) correct() bool { return rep.Failed == 0 }

func (rep *report) errorFrac() float64 { return float64(rep.Failed) / float64(rep.Attempted) }

// describe records a repetition's digest and counts, and the MPKI table
// of the measurements t came from.
func (rep *report) describe(r repResult, t totals) {
	cold := r.passes[0]
	rep.Digest = cold.digest
	rep.Counts = counts{Workloads: t.workloads, CellsPerPass: cold.cells,
		Instructions: t.instructions, LaneRecords: t.laneRecords, Dispatches: cold.dispatches}
	rep.MPKI = t.mpki
}

// add records the median and quartiles of per-repetition samples.
func (rep *report) add(name, unit string, xs ...float64) {
	rep.Metrics = append(rep.Metrics, metric{Name: name, Unit: unit,
		Value: percentile(xs, 50), P25: percentile(xs, 25), P75: percentile(xs, 75), N: len(xs)})
}

// addValue records a value aggregated over n samples.
func (rep *report) addValue(name, unit string, v float64, n int) {
	rep.Metrics = append(rep.Metrics, metric{Name: name, Unit: unit, Value: v, P25: v, P75: v, N: n})
}

func (rep *report) metric(name string) (metric, bool) {
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable report.
func (rep *report) print(w io.Writer) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "suitebench %s, seed %d, %s, %d repetitions\n", rep.Workload, rep.Seed, mode, rep.Reps)
	fmt.Fprintf(w, "  why: %s\n", rep.Why)
	h := rep.Host
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, %s, revision %s (modified %v)\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Revision, h.Modified)
	c := rep.Counts
	fmt.Fprintf(w, "counts: %d workloads, %d cells per pass, %.0f instructions, %.0f lane records, %d dispatches\n",
		c.Workloads, c.CellsPerPass, c.Instructions, c.LaneRecords, c.Dispatches)
	fmt.Fprintf(w, "digest: %s\n", rep.Digest)
	for _, ck := range rep.Checks {
		status := "ok  "
		if !ck.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s %s\n", status, ck.Name, ck.Detail)
	}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "metric %-36s %12.6g %-9s p25 %-11.6g p75 %-11.6g n=%d\n", m.Name, m.Value, m.Unit, m.P25, m.P75, m.N)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "%-28s %8d %14.3f %14.3f\n", l.Name, l.Spans, l.TotalMS, l.SelfMS)
		}
	}
	fmt.Fprintln(w, "suite-mean simulated MPKI: unvalidated synthetic-trace model, not a regression metric")
	fmt.Fprintf(w, "  %-8s %10s %10s %12s %12s\n", "policy", "icache", "btb", "paper icache", "paper btb")
	for _, r := range rep.MPKI {
		paperI, paperB := "-", "-"
		if r.PaperICache != nil {
			paperI, paperB = fmt.Sprint(*r.PaperICache), fmt.Sprint(*r.PaperBTB)
		}
		fmt.Fprintf(w, "  %-8s %10.3f %10.3f %12s %12s\n", r.Policy, r.ICache, r.BTB, paperI, paperB)
	}
}

// ledgerPath is the benchmark definition, relative to the repository
// root the command runs from.
const ledgerPath = "BENCHMARK.json"

// ledgerMetric is a metric BENCHMARK.json lists.
type ledgerMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type ledger struct {
	EndToEnd []ledgerMetric `json:"end_to_end"`
	PerLayer []ledgerMetric `json:"per_layer"`
}

func readLedger(path string) (ledger, error) {
	var l ledger
	blob, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(blob, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// resultLine is the one-line JSON result: the listed metrics, each with
// the unit the ledger gives it.
func (rep *report) resultLine(listed []ledgerMetric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, map[string]value{}}
	for _, l := range listed {
		m, ok := rep.metric(l.Name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", l.Name)
		}
		if m.Unit != l.Unit {
			return nil, fmt.Errorf("metric %s is measured in %s, listed in %s", l.Name, m.Unit, l.Unit)
		}
		out.Metrics[l.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(out)
}
