package dist

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghrpsim/internal/obs"
	"ghrpsim/internal/workload"
)

// ghrpdBin is the real daemon binary, built once by TestMain. The spawn
// tests exercise actual subprocesses — real pipes, real ports, real
// SIGKILL — because the httptest fault tests cannot prove the process
// plumbing.
var ghrpdBin string

func TestMain(m *testing.M) {
	if os.Getenv("GHRP_DIST_SKIP_SPAWN") == "" {
		dir, err := os.MkdirTemp("", "ghrpdist-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		ghrpdBin = filepath.Join(dir, "ghrpd")
		cmd := exec.Command("go", "build", "-o", ghrpdBin, "ghrpsim/cmd/ghrpd")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "building ghrpd for spawn tests: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

func spawnWorker(t *testing.T) *Proc {
	t.Helper()
	if ghrpdBin == "" {
		t.Skip("spawn tests disabled via GHRP_DIST_SKIP_SPAWN")
	}
	p, err := Spawn(ghrpdBin, []string{"-slots", "2", "-job-parallelism", "2"}, os.Stderr)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	return p
}

// TestSpawnAnnounceAndStop pins the subprocess handshake: the daemon
// announces a usable base URL on stdout, answers /healthz, and exits on
// SIGTERM.
func TestSpawnAnnounceAndStop(t *testing.T) {
	p := spawnWorker(t)
	c := NewClient(p.URL(), fastRetry(), nil, nil, "spawned")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	doc, err := c.Health(ctx)
	if err != nil {
		p.Kill()
		t.Fatalf("Health against spawned worker: %v", err)
	}
	if doc.Draining {
		p.Kill()
		t.Fatalf("fresh worker reports draining")
	}
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestSpawnImmediateStop stops daemons the moment they announce. The
// SIGTERM then lands as early as a coordinator can send it, and the
// daemon must still drain and exit cleanly, not die of the signal.
func TestSpawnImmediateStop(t *testing.T) {
	for i := 0; i < 8; i++ {
		p := spawnWorker(t)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := p.Stop(ctx)
		cancel()
		if err != nil {
			t.Fatalf("spawn %d: Stop: %v", i, err)
		}
	}
}

// TestCoordinatorSurvivesWorkerKill is the crash test the package
// exists for: two real spawned daemons, one SIGKILLed the moment its
// first shard dispatch is announced — before the submission can land —
// and the merged result must still be bit-identical to a single-process
// run. The kill happens synchronously inside the observer, so the
// dispatch is guaranteed to hit a dead process, not a drained one.
func TestCoordinatorSurvivesWorkerKill(t *testing.T) {
	victim, survivor := spawnWorker(t), spawnWorker(t)
	var killOnce sync.Once
	killed := make(chan struct{})
	t.Cleanup(func() {
		killOnce.Do(func() { victim.Kill(); close(killed) })
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		survivor.Stop(ctx)
	})

	rec := &recorder{}
	observe := func(e obs.Event) {
		if e.Kind == obs.ShardDispatch && e.Worker == "victim" {
			killOnce.Do(func() {
				if err := victim.Kill(); err != nil {
					t.Errorf("killing victim: %v", err)
				}
				close(killed)
			})
		}
		rec.observe(e)
	}

	opts := testOpts(
		WorkerSpec{Name: "victim", URL: victim.URL(), Proc: victim},
		WorkerSpec{Name: "survivor", URL: survivor.URL(), Proc: survivor},
	)
	opts.Observer = observe
	opts.QuarantineAfter = 2
	opts.ProbeEvery = 20 * time.Millisecond
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := runAndVerify(t, c)

	select {
	case <-killed:
	default:
		t.Fatalf("victim was never dispatched to, so the crash path was not exercised")
	}
	if m.Stats.ShardFailures < 1 {
		t.Errorf("ShardFailures = %d, want >= 1 (the killed worker's dispatch must fail)", m.Stats.ShardFailures)
	}
	if m.Stats.Quarantines < 1 {
		t.Errorf("Quarantines = %d, want >= 1 (the dead worker must leave the roster)", m.Stats.Quarantines)
	}
	if got := rec.count(obs.WorkloadDone); got != 4 {
		t.Errorf("WorkloadDone events = %d, want 4 (every workload completes despite the crash)", got)
	}
}

// TestCoordinatorSpawnedCleanRun is the happy path over real
// subprocesses: both workers live, merged result bit-identical.
func TestCoordinatorSpawnedCleanRun(t *testing.T) {
	w0, w1 := spawnWorker(t), spawnWorker(t)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w0.Stop(ctx)
		w1.Stop(ctx)
	})
	opts := testOpts(
		WorkerSpec{Name: "w0", URL: w0.URL(), Proc: w0},
		WorkerSpec{Name: "w1", URL: w1.URL(), Proc: w1},
	)
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := runAndVerify(t, c)
	if m.Stats.LocalShards != 0 {
		t.Errorf("LocalShards = %d, want 0 (healthy spawned workers should carry the suite)", m.Stats.LocalShards)
	}
}

// TestCoordinatorScaleHeapCeiling is the scaling drill: a generated
// 5000-workload suite over two spawned daemons, with the coordinator's
// heap sampled while the distributed run is in flight. Results fold
// into the merge as shards land, so the coordinator holds the output
// vectors plus O(in-flight shards) documents. The ceiling catches gross
// growth such as a leak per shard; at this suite size it cannot tell a
// return to buffering every shard's result, since the whole merged
// document is about 0.5 MB. The merged result must also be
// bit-identical to the single-process reference, whose own run
// afterwards may hold the whole suite and is not sampled.
func TestCoordinatorScaleHeapCeiling(t *testing.T) {
	const (
		suiteSize   = 5000
		shardSize   = 100
		heapCeiling = 256 << 20 // bytes
	)
	w0, w1 := spawnWorker(t), spawnWorker(t)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w0.Stop(ctx)
		w1.Stop(ctx)
	})
	c, err := New(Options{
		Suite:      &workload.SuiteGen{N: suiteSize, FootprintMin: 0.2, FootprintMax: 1.0},
		Policies:   []string{"LRU", "GHRP"},
		Scale:      0.001,
		ShardSize:  shardSize,
		HedgeAfter: -1,
		Workers: []WorkerSpec{
			{Name: "w0", URL: w0.URL(), Proc: w0},
			{Name: "w1", URL: w1.URL(), Proc: w1},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Start from a collected heap so earlier tests' garbage does not
	// count against the run.
	runtime.GC()
	var peak atomic.Uint64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	m, err := c.Run(ctx)
	close(stop)
	<-sampled
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	verifyReference(t, c, m)
	if len(m.Workloads) != suiteSize {
		t.Errorf("merged %d workloads, want %d", len(m.Workloads), suiteSize)
	}
	peakMB := float64(peak.Load()) / (1 << 20)
	if peak.Load() > heapCeiling {
		t.Errorf("peak coordinator heap %.1f MB exceeds the %d MB ceiling", peakMB, heapCeiling>>20)
	}
	t.Logf("peak coordinator heap %.1f MB over %d shards", peakMB, c.Shards())
}
