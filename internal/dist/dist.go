// Package dist is fault-tolerant distributed suite execution: a
// coordinator that shards a suite run into groups of whole workloads,
// dispatches each shard to a roster of ghrpd workers over the HTTP API
// (docs/API.md), and merges the partial results into a document proven
// bit-identical to a single-process run.
//
// The identity argument is the package's spine: every (workload,
// config, seed, policy) cell is deterministic regardless of grouping or
// parallelism, a shard request normalizes exactly the way a worker
// daemon normalizes it, and shard results are folded back by global
// workload index — so the merged vectors equal the single-process
// vectors byte for byte no matter which worker ran what, how many
// retries it took, or whether a shard fell back to in-process
// execution.
//
// The failure surface is handled in layers, cheapest first:
//
//   - HTTP attempts retry with capped exponential backoff and
//     deterministic (splitmix64-seeded) jitter, honoring Retry-After on
//     429/503.
//   - A truncated SSE stream reconnects with Last-Event-ID and resumes;
//     repeated stream failures degrade to status polling.
//   - A failed shard dispatch requeues the shard for another worker.
//   - Consecutive worker failures quarantine the worker; a background
//     health prober reinstates it on probation after it answers again.
//   - A straggling shard is hedged: speculatively re-dispatched to an
//     idle worker, first completion wins, the loser is cancelled via
//     DELETE /runs/{id}.
//   - A shard that exhausts its remote attempts — or finds every worker
//     quarantined — runs in-process on the coordinator's own scheduler,
//     keep-going style: graceful degradation down to "no workers at
//     all" still completes the suite.
//
// Determinism discipline: simulation results never depend on this
// package's clocks. Wall time feeds only transport pacing (backoff,
// probing, hedging) and reported stats, and every wall-clock read goes
// through the helpers below so the lint exception surface stays small
// and auditable.
package dist

import (
	"context"
	"time"
)

// Transport and roster defaults; Options fields override each.
const (
	// DefaultMaxAttempts is the per-HTTP-call attempt budget.
	DefaultMaxAttempts = 4
	// DefaultBackoff is the base delay before the first HTTP retry,
	// doubled per attempt with deterministic jitter.
	DefaultBackoff = 50 * time.Millisecond
	// DefaultMaxBackoff caps the exponential backoff delay, and also
	// caps how long a Retry-After header is honored for.
	DefaultMaxBackoff = 2 * time.Second
	// DefaultAttemptTimeout bounds one unary HTTP attempt (SSE tails
	// are bounded by heartbeats and the dispatch context instead).
	DefaultAttemptTimeout = 30 * time.Second
	// DefaultProbeEvery is the health-prober period.
	DefaultProbeEvery = time.Second
	// probeTimeoutFloor is the minimum deadline one health probe gets,
	// however fast the probe cadence is. A dead worker still fails
	// instantly (refused connection); the floor only keeps a slow-but-
	// alive worker from being spuriously quarantined because the probe
	// period was tuned tight.
	probeTimeoutFloor = time.Second
	// DefaultQuarantineAfter is the consecutive-failure threshold that
	// quarantines a worker.
	DefaultQuarantineAfter = 3
	// DefaultShardAttempts is how many dispatch attempts a shard gets
	// across the roster before it falls back to in-process execution.
	DefaultShardAttempts = 3
	// DefaultStreamResets is how many consecutive SSE reconnect
	// failures a tail tolerates before degrading to status polling.
	DefaultStreamResets = 3
	// DefaultPollEvery paces the status-polling fallback.
	DefaultPollEvery = 200 * time.Millisecond
	// DefaultHedgeAfter is how long a shard's only live attempt may go
	// without observed liveness before it is hedged to an idle worker.
	DefaultHedgeAfter = 10 * time.Second
)

// now reads the wall clock for transport pacing and reported stats.
func now() time.Time {
	return time.Now() //ghrplint:ignore detwallclock transport pacing (backoff, hedging, probe liveness) and wall-time stats; simulation results never read this clock
}

// sleep waits d or until ctx is done, whichever first; it reports
// whether the full delay elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d) //ghrplint:ignore detwallclock backoff and poll pacing between HTTP attempts; cancellable so drains never wait out a backoff
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// tick returns a ticker channel plus its stop function — the prober's
// and the hedge scanner's pacing.
func tick(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d) //ghrplint:ignore detwallclock periodic health probing and hedge scanning are wall-clock by definition; results never depend on their cadence
	return t.C, t.Stop
}
