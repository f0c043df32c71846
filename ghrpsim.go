// Package ghrpsim reproduces "Exploring Predictive Replacement Policies
// for Instruction Cache and Branch Target Buffer" (Ajorpaz, Garza,
// Jindal, Jiménez; ISCA 2018): Global History Reuse Prediction (GHRP), a
// dead-block replacement and bypass policy for the I-cache and BTB,
// together with the trace-driven front-end simulator, baseline policies
// (LRU, Random, FIFO, SRRIP, modified SDBP), a synthetic 662-workload
// suite standing in for the proprietary CBP-5 traces, and the experiment
// harness that regenerates every table and figure of the paper's
// evaluation.
//
// Quick start — replay a workload under both policies in one pass,
// which also derives the warm-up window from the stream's length:
//
//	spec := ghrpsim.SuiteN(8)[0]
//	prog, _ := spec.Generate()
//	cfg := ghrpsim.DefaultConfig()
//	kinds := []ghrpsim.PolicyKind{ghrpsim.PolicyLRU, ghrpsim.PolicyGHRP}
//	res, _ := ghrpsim.SimulateFanOut(cfg, kinds, prog, 1, 500_000, ghrpsim.WarmupFromStream, ghrpsim.StreamOptions{})
//	fmt.Printf("LRU %.3f vs GHRP %.3f I-cache MPKI\n", res[0].ICacheMPKI(), res[1].ICacheMPKI())
//
// NewFanOut gives record-level control (Process, Flush) and access to
// the simulated structures, such as the efficiency matrices behind the
// paper's heat maps.
//
// The package re-exports the library's composable pieces as type
// aliases, so external users can reach everything through this import
// while the implementation stays organized in internal packages.
package ghrpsim

import (
	"context"
	"io"
	"time"

	"ghrpsim/internal/core"
	"ghrpsim/internal/frontend"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/sim"
	"ghrpsim/internal/trace"
	"ghrpsim/internal/workload"
)

// --- Front-end simulator -------------------------------------------------

// Config is the complete front-end configuration: I-cache and BTB
// geometry, warm-up policy, GHRP and SDBP parameters, branch predictor
// setup, and wrong-path modeling.
type Config = frontend.Config

// ICacheConfig is the instruction cache geometry.
type ICacheConfig = frontend.ICacheConfig

// BTBConfig is the branch target buffer geometry.
type BTBConfig = frontend.BTBConfig

// Result is one simulation's statistics; see ICacheMPKI, BTBMPKI and
// BranchMPKI.
type Result = frontend.Result

// FanOut is the trace-driven front-end simulator: one record stream
// replayed under one or more policies in lockstep.
type FanOut = frontend.FanOut

// PolicyKind names a replacement policy.
type PolicyKind = frontend.PolicyKind

// Replacement policies. PaperPolicies returns the five the paper
// evaluates.
const (
	PolicyLRU    = frontend.PolicyLRU
	PolicyRandom = frontend.PolicyRandom
	PolicyFIFO   = frontend.PolicyFIFO
	PolicySRRIP  = frontend.PolicySRRIP
	PolicySDBP   = frontend.PolicySDBP
	PolicyGHRP   = frontend.PolicyGHRP
)

// DefaultConfig mirrors the paper's primary setup: 64KB/8-way/64B
// I-cache, 4096-entry/4-way BTB, warm-up on the first half of the trace.
func DefaultConfig() Config { return frontend.DefaultConfig() }

// ParsePolicy resolves a case-insensitive policy name ("lru", "ghrp"...).
func ParsePolicy(name string) (PolicyKind, error) { return frontend.ParsePolicy(name) }

// PaperPolicies returns LRU, Random, SRRIP, SDBP, GHRP in the paper's
// reporting order.
func PaperPolicies() []PolicyKind { return frontend.PaperPolicies() }

// NewFanOut builds a simulator with one lane per policy in kinds;
// warmupLimit instructions are excluded from statistics (see
// Config.WarmupFor and WarmupFromStream).
func NewFanOut(cfg Config, kinds []PolicyKind, warmupLimit uint64) (*FanOut, error) {
	return frontend.NewFanOut(cfg, kinds, warmupLimit)
}

// WarmupFromStream is the warm-up limit that derives the paper's window
// (Config.WarmupFor of the stream's total instructions) from the same
// single pass that simulates a program: pass it to SimulateFanOut, or to
// NewFanOut before FanOut.StreamProgram. Record-level replay (Process)
// needs an explicit limit.
const WarmupFromStream = frontend.WarmupFromStream

// StreamOptions tunes a streaming replay: an optional progress callback
// invoked every ProgressEvery records, which may abort (e.g. for
// cancellation) by returning an error.
type StreamOptions = frontend.StreamOptions

// SimulateFanOut executes a program once and replays it under every
// given policy in lockstep; each Result is bit-identical to a one-lane
// replay of its policy, at one execution's cost. WarmupFromStream as
// warmupLimit applies the paper's warm-up rule to the stream.
func SimulateFanOut(cfg Config, kinds []PolicyKind, prog *Program, seed, target, warmupLimit uint64, opts StreamOptions) ([]Result, error) {
	return frontend.SimulateFanOut(cfg, kinds, prog, seed, target, warmupLimit, opts)
}

// GenerateRecords executes a program once, returning its record stream
// so several policies can replay identical traces.
func GenerateRecords(prog *Program, seed, target uint64) ([]Record, error) {
	return frontend.GenerateRecords(prog, seed, target)
}

// --- GHRP (the paper's contribution) -------------------------------------

// GHRPConfig parameterizes the Global History Reuse Predictor: table
// geometry, history formula, thresholds, aggregation, and training mode.
// The zero value is the tuned paper configuration.
type GHRPConfig = core.Config

// GHRPPredictor is the prediction-table machinery shared by the I-cache
// policy and the BTB adapter.
type GHRPPredictor = core.Predictor

// GHRPHistory is the speculative/retired path history register pair.
type GHRPHistory = core.History

// GHRPStorage describes a GHRP deployment's SRAM budget (Table I).
type GHRPStorage = core.Storage

// --- Workloads ------------------------------------------------------------

// Record is one branch execution in a trace.
type Record = trace.Record

// Category labels a workload with its CBP5-style suite class.
type Category = trace.Category

// Profile parameterizes synthetic program generation.
type Profile = workload.Profile

// Program is a synthesized control-flow graph executed to emit traces.
type Program = workload.Program

// Spec is one suite workload (profile + instruction budget).
type Spec = workload.Spec

// SuiteSize is the number of workloads in the full suite (662, matching
// the paper's CBP-5 count).
const SuiteSize = workload.SuiteSize

// Suite returns all 662 workload specifications.
func Suite() []Spec { return workload.Suite() }

// SuiteN returns an evenly spaced subsample of n workloads.
func SuiteN(n int) []Spec { return workload.SuiteN(n) }

// FindWorkload returns the suite workload with the given name.
func FindWorkload(name string) (Spec, error) { return workload.Find(name) }

// GenerateProgram synthesizes a program from a profile.
func GenerateProgram(p Profile) (*Program, error) { return workload.Generate(p) }

// --- Experiment harness ----------------------------------------------------

// Options configures a suite run across policies.
type Options = sim.Options

// Measurements is a suite run's outcome: per-policy MPKI vectors.
type Measurements = sim.Measurements

// Structure selects I-cache or BTB results in experiment reports.
type Structure = sim.Structure

// Experiment structure selectors.
const (
	ICache = sim.ICache
	BTB    = sim.BTB
)

// RunEvent is one progress observation from a suite run.
type RunEvent = obs.Event

// RunObserver consumes live progress events; attach one via
// Options.Observer. Observers are invoked concurrently.
type RunObserver = obs.Observer

// RunStats aggregates a run's wall time and per-workload / per-policy
// throughput; available as Measurements.Stats.
type RunStats = obs.RunStats

// RunEventKind distinguishes run progress events.
type RunEventKind = obs.EventKind

// Run progress event kinds; see RunEvent.
const (
	RunStart          = obs.RunStart
	RunWorkloadStart  = obs.WorkloadStart
	RunTick           = obs.Tick
	RunPolicyDone     = obs.PolicyDone
	RunWorkloadDone   = obs.WorkloadDone
	RunWorkloadFailed = obs.WorkloadFailed
	RunDone           = obs.RunDone
	RunPolicyCached   = obs.PolicyCached
)

// Multi fans each run event out to every non-nil observer.
func Multi(observers ...RunObserver) RunObserver { return obs.Multi(observers...) }

// ExecSeedZero requests literal execution seed 0 in Options.ExecSeed
// (whose zero value means "unset" and defaults to seed 1).
const ExecSeedZero = sim.ExecSeedZero

// NewRunProgress returns a RunObserver that writes rate-limited progress
// lines to w (e.g. os.Stderr).
func NewRunProgress(w io.Writer, interval time.Duration) RunObserver {
	return obs.NewProgress(w, interval)
}

// ResultCache is the content-addressed on-disk result cache: attach one
// via Options.Cache so repeat runs, sweeps and ablations skip
// already-simulated (workload, policy, config) cells.
type ResultCache = resultcache.Cache

// ResultCacheKey is one cache entry's content-addressed key.
type ResultCacheKey = resultcache.Key

// OpenResultCache opens (creating if needed) a result cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return resultcache.Open(dir) }

// ResultCacheKeyFor computes the content-addressed key for one
// (workload, config, policy, seed, budget) simulation cell.
func ResultCacheKeyFor(spec Spec, cfg Config, kind PolicyKind, execSeed, target uint64) (ResultCacheKey, error) {
	return resultcache.KeyFor(spec, cfg, kind, execSeed, target)
}

// Run simulates a workload suite across policies in parallel.
func Run(opts Options) (*Measurements, error) { return sim.Run(opts) }

// RunContext is Run with cooperative cancellation: the run streams each
// workload per policy, aborts promptly when ctx is cancelled, and
// aggregates every workload failure into the returned error.
func RunContext(ctx context.Context, opts Options) (*Measurements, error) {
	return sim.RunContext(ctx, opts)
}
