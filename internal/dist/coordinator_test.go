package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/serve"
)

// newWorkerServer starts one in-process ghrpd (a serve.Server behind a
// real httptest listener) — the deterministic stand-in for a worker
// daemon in the fault tests. Spawned-subprocess workers are covered by
// spawn_test.go.
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Slots: 2, QueueDepth: 8, Defaults: serve.Defaults{JobParallelism: 2}})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return ts
}

// deadWorkerURL returns a URL nothing listens on: every request is a
// refused connection.
func deadWorkerURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

// fastRetry keeps test backoffs in the millisecond range.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		Backoff:        2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		MaxRetryAfter:  20 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
		PollEvery:      10 * time.Millisecond,
	}
}

// testOpts is the shared tiny suite: four workloads, two policies,
// ~1000 instructions each, ticking often enough that tails see frames.
func testOpts(workers ...WorkerSpec) Options {
	return Options{
		SuiteN:        4,
		Policies:      []string{"LRU", "GHRP"},
		Scale:         0.001,
		ProgressEvery: 8, // tiny runs still produce a few ticks to forward
		Parallelism:   2,
		Workers:       workers,
		ShardSize:     1,
		HedgeAfter:    -1, // individual tests opt in
		ProbeEvery:    15 * time.Millisecond,
		Retry:         fastRetry(),
	}
}

// recorder is a concurrency-safe observer.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) observe(e obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

func (r *recorder) count(k obs.EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// runAndVerify runs the coordinator and asserts the merged result is
// bit-identical to the single-process reference — the package's core
// guarantee, asserted after every injected failure mode.
func runAndVerify(t *testing.T, c *Coordinator) *Merged {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	m, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, err := m.IdentityJSON()
	if err != nil {
		t.Fatalf("IdentityJSON: %v", err)
	}
	ref, err := c.Reference(ctx)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	want, err := ref.IdentityJSON()
	if err != nil {
		t.Fatalf("reference IdentityJSON: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged result differs from single-process reference:\n--- merged ---\n%s\n--- reference ---\n%s", got, want)
	}
	return m
}

func TestCoordinatorCleanRunBitIdentity(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	rec := &recorder{}
	opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
	opts.Observer = rec.observe
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 {
		t.Fatalf("got %d shards, want 4 (ShardSize 1 over suite_n 4)", c.Shards())
	}
	m := runAndVerify(t, c)

	if m.Stats.Dispatches < 4 {
		t.Errorf("Dispatches = %d, want >= 4", m.Stats.Dispatches)
	}
	if m.Stats.Quarantines != 0 || m.Stats.LocalShards != 0 {
		t.Errorf("clean run saw quarantines=%d localShards=%d, want 0/0", m.Stats.Quarantines, m.Stats.LocalShards)
	}
	if got := rec.count(obs.ShardDone); got != 4 {
		t.Errorf("ShardDone events = %d, want 4", got)
	}
	if got := rec.count(obs.WorkloadDone); got != 4 {
		t.Errorf("WorkloadDone events = %d, want 4 (exactly once per workload)", got)
	}
	if rec.count(obs.RunStart) != 1 || rec.count(obs.RunDone) != 1 {
		t.Error("run lifecycle not emitted exactly once")
	}
	if rec.count(obs.Tick) == 0 {
		t.Error("no forwarded Tick events; progress tailing is not flowing")
	}
}

// TestCoordinatorNamedWorkloadsBitIdentity runs explicitly named
// workloads, out of suite order, through a worker: shard requests carry
// slices of the normalized names, and the merged result keeps the
// requested order and equals the single-process reference.
func TestCoordinatorNamedWorkloadsBitIdentity(t *testing.T) {
	w0 := newWorkerServer(t)
	opts := testOpts(WorkerSpec{URL: w0.URL})
	opts.SuiteN = 0
	opts.Workloads = []string{"LS-145", "SM-001", "SS-070"}
	opts.ShardSize = 2
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)
	if !reflect.DeepEqual(m.Workloads, opts.Workloads) {
		t.Errorf("merged workloads %v, want %v", m.Workloads, opts.Workloads)
	}
	if m.Stats.LocalShards != 0 {
		t.Errorf("LocalShards = %d, want 0 (healthy roster)", m.Stats.LocalShards)
	}
}

func TestCoordinatorDroppedConnAndCorruptBody(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	faults := faultinject.New(
		// Two dropped connections and one corrupted response body,
		// spread across the run's unary calls.
		faultinject.Rule{Op: faultinject.OpDistConn, Nth: 1, Count: 2, Action: faultinject.Transient},
		faultinject.Rule{Op: faultinject.OpDistBody, Nth: 3, Action: faultinject.Corrupt},
	)
	opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
	opts.Faults = faults
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)

	if m.Stats.Retries < 3 {
		t.Errorf("Retries = %d, want >= 3 (two dropped connections + one corrupt body)", m.Stats.Retries)
	}
	if got := faults.Fired(faultinject.OpDistBody); got != 1 {
		t.Errorf("corrupt-body rule fired %d times, want 1", got)
	}
}

func TestCoordinatorTruncatedSSEReconnect(t *testing.T) {
	w0 := newWorkerServer(t)
	faults := faultinject.New(
		// Truncate the second event frame of some tail; the client must
		// reconnect with Last-Event-ID and resume without gaps.
		faultinject.Rule{Op: faultinject.OpDistSSE, Nth: 2, Action: faultinject.Corrupt},
	)
	opts := testOpts(WorkerSpec{URL: w0.URL})
	opts.Faults = faults
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)

	if m.Stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (the stream reconnect)", m.Stats.Retries)
	}
	if got := faults.Fired(faultinject.OpDistSSE); got != 1 {
		t.Errorf("SSE truncation fired %d times, want 1", got)
	}
}

func TestCoordinatorSSEPollingFallback(t *testing.T) {
	w0 := newWorkerServer(t)
	faults := faultinject.New(
		// Every event frame truncates: reconnects burn out and the tail
		// must degrade to status polling — and still finish the run.
		faultinject.Rule{Op: faultinject.OpDistSSE, Nth: 1, Count: 1 << 30, Action: faultinject.Corrupt},
	)
	opts := testOpts(WorkerSpec{URL: w0.URL})
	opts.Faults = faults
	opts.Retry.StreamResets = 2
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)
	if m.Stats.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2 (exhausted stream resets)", m.Stats.Retries)
	}
}

func TestCoordinatorDeadWorkerQuarantineAndRedispatch(t *testing.T) {
	live := newWorkerServer(t)
	rec := &recorder{}
	opts := testOpts(
		WorkerSpec{Name: "live", URL: live.URL},
		WorkerSpec{Name: "dead", URL: deadWorkerURL(t)},
	)
	opts.Observer = rec.observe
	opts.QuarantineAfter = 2
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)

	if m.Stats.Quarantines < 1 {
		t.Errorf("Quarantines = %d, want >= 1 (dead worker)", m.Stats.Quarantines)
	}
	if m.Stats.ShardFailures < 1 {
		t.Errorf("ShardFailures = %d, want >= 1 (dispatches to the dead worker)", m.Stats.ShardFailures)
	}
	for _, w := range c.Workers() {
		if w.Name == "dead" && w.State() != "quarantined" {
			t.Errorf("dead worker state = %q, want quarantined", w.State())
		}
	}
}

func TestCoordinatorAllWorkersDeadLocalFallback(t *testing.T) {
	rec := &recorder{}
	opts := testOpts(
		WorkerSpec{URL: deadWorkerURL(t)},
		WorkerSpec{URL: deadWorkerURL(t)},
	)
	opts.Observer = rec.observe
	opts.QuarantineAfter = 1
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)

	if m.Stats.LocalShards != c.Shards() {
		t.Errorf("LocalShards = %d, want %d (every shard through the in-process fallback)", m.Stats.LocalShards, c.Shards())
	}
	if m.Stats.Quarantines < 2 {
		t.Errorf("Quarantines = %d, want >= 2 (both workers)", m.Stats.Quarantines)
	}
	if got := rec.count(obs.ShardLocal); got != c.Shards() {
		t.Errorf("ShardLocal events = %d, want %d", got, c.Shards())
	}
	if got := rec.count(obs.WorkloadDone); got != 4 {
		t.Errorf("WorkloadDone events = %d, want 4", got)
	}
}

func TestCoordinatorEmptyRosterRunsLocally(t *testing.T) {
	opts := testOpts() // no workers at all: the deepest degradation rung
	// Twice the shards of the other tests, so the local lane's Runner
	// hands the same sim workers to several shards in a row.
	opts.SuiteN = 8
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)
	if m.Stats.LocalShards != c.Shards() {
		t.Errorf("LocalShards = %d, want %d", m.Stats.LocalShards, c.Shards())
	}
}

func TestCoordinatorHedgeWinsOverStalledDispatch(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	faults := faultinject.New(
		// One dispatch hangs after its submission is accepted; the
		// hedge (first completion wins) must finish the shard and
		// cancel the stalled loser's run via DELETE.
		faultinject.Rule{Op: faultinject.OpDistSlow, Nth: 1, Action: faultinject.Stall},
	)
	rec := &recorder{}
	opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
	opts.Faults = faults
	opts.Observer = rec.observe
	opts.ShardSize = 2 // two shards: one stalls, the idle worker hedges it
	opts.HedgeAfter = 50 * time.Millisecond
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := runAndVerify(t, c)

	if m.Stats.Hedges < 1 {
		t.Errorf("Hedges = %d, want >= 1 (the stalled shard)", m.Stats.Hedges)
	}
	if m.Stats.Quarantines != 0 {
		t.Errorf("Quarantines = %d, want 0 (losing a hedge is not a worker failure)", m.Stats.Quarantines)
	}
	if got := rec.count(obs.ShardHedge); got < 1 {
		t.Errorf("ShardHedge events = %d, want >= 1", got)
	}
	if got := rec.count(obs.WorkloadDone); got != 4 {
		t.Errorf("WorkloadDone events = %d, want 4 (hedging must not double-report)", got)
	}
	// The loser must be cancelled as a lost hedge when the winner
	// completes, and joined; left stalled until the run ends, its
	// dispatch would fail and be charged to its worker.
	for _, w := range c.Workers() {
		w.mu.Lock()
		fails := w.fails
		w.mu.Unlock()
		if fails != 0 {
			t.Errorf("worker %s has %d consecutive failures, want 0", w.Name, fails)
		}
	}
	requireNoCoordinatorGoroutines(t)
}

// A stalled shard holds back no other shard: every other shard is
// dispatched before the stalled one is hedged. next prefers pending
// claims over hedges, so the order is deterministic. With twelve shards
// the run has more than the eight a dispatch gate anchored at the
// lowest unfinished shard used to let through by default.
func TestCoordinatorStalledShardDoesNotGateDispatch(t *testing.T) {
	w0, w1 := newWorkerServer(t), newWorkerServer(t)
	faults := faultinject.New(
		faultinject.Rule{Op: faultinject.OpDistSlow, Nth: 1, Action: faultinject.Stall},
	)
	rec := &recorder{}
	opts := testOpts(WorkerSpec{URL: w0.URL}, WorkerSpec{URL: w1.URL})
	opts.SuiteN = 12
	opts.Faults = faults
	opts.Observer = rec.observe
	opts.HedgeAfter = 300 * time.Millisecond
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	runAndVerify(t, c)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	stalled, dispatched := -1, map[int]bool{}
	for _, e := range rec.events {
		if e.Kind == obs.ShardHedge {
			stalled = e.Shard
			break
		}
		if e.Kind == obs.ShardDispatch {
			dispatched[e.Shard] = true
		}
	}
	if stalled < 0 {
		t.Fatal("the stalled shard was never hedged")
	}
	for i := 0; i < c.Shards(); i++ {
		if i != stalled && !dispatched[i] {
			t.Errorf("shard %d was first dispatched after stalled shard %d was hedged", i, stalled)
		}
	}
}

// Claims walk pending in shard-index order: a worker takes the lowest
// pending shard the ring assigns to it, steals the lowest pending shard
// once it owns none, and a released shard goes back to its index
// position.
func TestCoordinatorClaimOrder(t *testing.T) {
	c, err := New(Options{
		SuiteN:    16,
		Policies:  []string{"LRU"},
		ShardSize: 1,
		Workers:   []WorkerSpec{{URL: deadWorkerURL(t)}, {URL: deadWorkerURL(t)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.runCtx = context.Background()
	w := c.workers[0]
	var mine, others []int
	for _, s := range c.shards {
		if c.ring.owner(s.affinity, allUsable) == w.index {
			mine = append(mine, s.idx)
		} else {
			others = append(others, s.idx)
		}
	}
	if len(mine) == 0 || len(others) == 0 {
		t.Fatalf("degenerate placement: worker owns %d of %d shards", len(mine), len(c.shards))
	}

	c.mu.Lock()
	var claimed []*shard
	for _, want := range mine {
		s, affine := c.claimPendingLocked(w)
		if s.idx != want || !affine {
			t.Fatalf("claim = shard %d (affine %v), want ring-owned shard %d", s.idx, affine, want)
		}
		claimed = append(claimed, s)
	}
	if s, affine := c.claimPendingLocked(w); s.idx != others[0] || affine {
		t.Fatalf("claim = shard %d (affine %v), want a steal of the lowest pending shard %d", s.idx, affine, others[0])
	}
	back := claimed[len(claimed)/2]
	att := c.newAttemptLocked(back, w, false)
	c.mu.Unlock()
	c.release(att, errors.New("injected"), false)
	att.cancel(nil)

	c.mu.Lock()
	defer c.mu.Unlock()
	var got []int
	for _, p := range c.pending {
		got = append(got, p.idx)
	}
	want := append([]int{back.idx}, others[1:]...)
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after releasing shard %d = %v, want %v", back.idx, got, want)
	}
}

// TestCoordinatorCancelMidRun cancels the run's context while a
// dispatch is stalled on an unresponsive worker: Run must give up
// promptly with the context's error and leave no coordinator goroutine
// behind.
func TestCoordinatorCancelMidRun(t *testing.T) {
	w0 := newWorkerServer(t)
	faults := faultinject.New(
		faultinject.Rule{Op: faultinject.OpDistSlow, Nth: 1, Action: faultinject.Stall},
	)
	opts := testOpts(WorkerSpec{URL: w0.URL})
	opts.Faults = faults
	opts.DisableLocal = true // no local lane to finish the suite around the stall
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx)
		errc <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); faults.Fired(faultinject.OpDistSlow) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the stalled dispatch never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of its context being cancelled")
	}
	requireNoCoordinatorGoroutines(t)
}

// requireNoCoordinatorGoroutines polls the goroutine dump for up to
// about a second until no goroutine has a Coordinator frame, and fails
// with the survivors' stacks otherwise. Run joins everything it starts,
// so once it has returned any such goroutine is a leak.
func requireNoCoordinatorGoroutines(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	var leaked []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		leaked = leaked[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "dist.(*Coordinator)") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("%d goroutine(s) still in the coordinator after Run returned:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

// flakyWorker proxies to a real worker but answers garbage 502s while
// down — dead enough to quarantine, recoverable enough to reinstate.
type flakyWorker struct {
	down    atomic.Bool
	backend http.Handler
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("\x00not json\x00"))
		return
	}
	f.backend.ServeHTTP(w, r)
}

func TestCoordinatorQuarantineThenReinstate(t *testing.T) {
	backend := serve.New(serve.Config{Slots: 2, QueueDepth: 8, Defaults: serve.Defaults{JobParallelism: 2}})
	flaky := &flakyWorker{backend: backend}
	flaky.down.Store(true)
	ts := httptest.NewServer(flaky)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		backend.Drain(ctx)
		ts.Close()
	})

	rec := &recorder{}
	opts := testOpts(WorkerSpec{Name: "flaky", URL: ts.URL})
	opts.Observer = rec.observe
	opts.QuarantineAfter = 2
	opts.ShardAttempts = 100 // never exhaust: the run must wait out the outage
	opts.DisableLocal = true // force recovery through reinstatement
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Bring the worker back once it has been quarantined.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if c.Stats().Quarantines >= 1 {
				flaky.down.Store(false)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	m := runAndVerify(t, c)
	if m.Stats.Quarantines < 1 {
		t.Errorf("Quarantines = %d, want >= 1", m.Stats.Quarantines)
	}
	if m.Stats.Reinstates < 1 {
		t.Errorf("Reinstates = %d, want >= 1 (probation after the probe recovered)", m.Stats.Reinstates)
	}
	if m.Stats.LocalShards != 0 {
		t.Errorf("LocalShards = %d, want 0 (local fallback was disabled)", m.Stats.LocalShards)
	}
	if st := c.Workers()[0].State(); st != "healthy" {
		t.Errorf("worker state after completed shards = %q, want healthy", st)
	}
	if rec.count(obs.WorkerReinstate) < 1 {
		t.Error("no WorkerReinstate event observed")
	}
}

func TestCoordinatorRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Workloads: []string{"x"}, SuiteN: 2}); err == nil {
		t.Error("workloads+suite_n accepted, want error")
	}
	if _, err := New(Options{SuiteN: -1}); err == nil {
		t.Error("negative suite_n accepted, want error")
	}
	if _, err := New(Options{SuiteN: 2, Scale: -1}); err == nil {
		t.Error("negative scale accepted, want error")
	}
	for _, scale := range []float64{math.Inf(1), math.NaN(), 1e308} {
		if _, err := New(Options{SuiteN: 2, Scale: scale}); err == nil {
			t.Errorf("scale %v accepted, want error", scale)
		}
	}
	if _, err := New(Options{SuiteN: 2, DisableLocal: true}); err == nil {
		t.Error("DisableLocal with an empty roster accepted, want error")
	}
	if _, err := New(Options{SuiteN: 2, Policies: []string{"NOPE"}}); err == nil {
		t.Error("unknown policy accepted, want error")
	}
}
