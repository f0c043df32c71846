// Command ghrpd is the simulation-as-a-service daemon: a long-running
// HTTP server that accepts suite runs as jobs, executes them on the
// internal/sim scheduler, streams progress events as Server-Sent
// Events, and serves results and figures from a concurrent run store.
// Identical submissions are content-addressed to one execution, and an
// attached -cache-dir lets overlapping submissions reuse each other's
// (workload, policy) cells across jobs and restarts. See docs/API.md
// for the endpoint reference.
//
// Usage:
//
//	ghrpd [-addr 127.0.0.1:8317] [-cache-dir DIR] [-slots N] [-queue N]
//	      [-job-parallelism N] [-max-cells N] [-max-runs N]
//	      [-task-timeout d] [-stall-timeout d] [-drain 10s] [-announce]
//
// Admission control: -slots bounds concurrent job executions, -queue
// the jobs accepted beyond that; an overflowing submission is answered
// with HTTP 429. -slots below 1 or a negative -queue, -job-parallelism,
// -max-cells or -max-runs exits 2 before the daemon starts.
// SIGINT/SIGTERM drains gracefully — intake stops (503), queued and
// running jobs get -drain to finish, stragglers are cancelled — and job
// failures of any kind (panics, deadlines, stalls) surface as a failed
// run status, never as daemon death.
//
// -announce prints the base URL on stdout once the daemon listens, the
// handshake a spawning coordinator reads (internal/dist). The daemon's
// end-to-end behaviour is tested through Go tests: internal/serve drives
// the handler over real HTTP, and internal/dist spawns this binary,
// SIGKILLs it and drains it with SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ghrpsim/internal/resultcache"
	"ghrpsim/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8317", "listen address (host:0 picks an ephemeral port)")
		cacheDir = flag.String("cache-dir", "", "on-disk result cache directory shared across jobs (empty = none)")
		slots    = flag.Int("slots", 2, "concurrent job executions")
		queue    = flag.Int("queue", 16, "jobs queued beyond the busy slots before 429")
		jobPar   = flag.Int("job-parallelism", 0, "per-job scheduler parallelism (0 = GOMAXPROCS/slots)")
		maxCells = flag.Int("max-cells", 0, "reject requests above this (workload x policy) cell count (0 = unlimited)")
		maxRuns  = flag.Int("max-runs", 1024, "retained runs before the oldest finished ones are evicted (0 = unbounded)")
		taskTO   = flag.Duration("task-timeout", 0, "per-workload-task deadline inside each job (0 = none)")
		stallTO  = flag.Duration("stall-timeout", 0, "per-task progress stall watchdog (0 = none)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for queued and running jobs")
		announce = flag.Bool("announce", false, "print the base URL to stdout once listening (for spawning coordinators)")
	)
	flag.Parse()
	if err := checkFlags(*slots, *queue, *jobPar, *maxCells, *maxRuns); err != nil {
		fmt.Fprintln(os.Stderr, "ghrpd:", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "ghrpd: ", log.LstdFlags)

	if *jobPar == 0 {
		*jobPar = runtime.GOMAXPROCS(0) / *slots
		if *jobPar < 1 {
			*jobPar = 1
		}
	}
	var cache *resultcache.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = resultcache.Open(*cacheDir); err != nil {
			logger.Fatal(err)
		}
	}
	srv := serve.New(serve.Config{
		Slots:      *slots,
		QueueDepth: *queue,
		MaxRuns:    *maxRuns,
		Defaults: serve.Defaults{
			JobParallelism: *jobPar,
			MaxCells:       *maxCells,
			Cache:          cache,
			TaskTimeout:    *taskTO,
			StallTimeout:   *stallTO,
		},
	})

	// Catch SIGTERM before listening: a spawning coordinator may stop the
	// daemon as soon as it reads the announce line, and the signal's
	// default action would kill it instead of draining it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("listening on http://%s", ln.Addr())
	if *announce {
		// One machine-readable line on stdout: the contract the dist
		// coordinator's worker spawner parses (logs stay on stderr).
		fmt.Printf("http://%s\n", ln.Addr())
	}

	select {
	case err := <-serveErr:
		logger.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	logger.Printf("signal received, draining (budget %s)", *drain)
	shutdown(srv, httpSrv, *drain)
	logger.Print("drained, bye")
}

// checkFlags rejects sizing flags the daemon cannot honour: fewer than
// one slot, or a negative count where 0 already means the default or
// "unlimited".
func checkFlags(slots, queue, jobPar, maxCells, maxRuns int) error {
	if slots < 1 {
		return fmt.Errorf("-slots %d: need at least 1", slots)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"queue", queue}, {"job-parallelism", jobPar}, {"max-cells", maxCells}, {"max-runs", maxRuns}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d: must not be negative", f.name, f.v)
		}
	}
	return nil
}

// shutdown drains the serving layer (intake off, jobs finish or are
// cancelled inside the budget), then closes the HTTP listener — by
// drain's end every SSE stream has ended, so Shutdown returns promptly.
func shutdown(srv *serve.Server, httpSrv *http.Server, budget time.Duration) {
	drainCtx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	srv.Drain(drainCtx)
	httpCtx, cancel2 := context.WithTimeout(context.Background(), budget)
	defer cancel2()
	httpSrv.Shutdown(httpCtx)
}
