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
//	      [-task-timeout d] [-stall-timeout d] [-drain 10s] [-smoke]
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
// -smoke runs the daemon's end-to-end self-test instead of serving:
// bind an ephemeral port, submit one tiny run over real HTTP, stream
// its events, fetch the result and figures, drain, and exit nonzero on
// any mismatch. make daemon-smoke wires it into CI.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
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
		smoke    = flag.Bool("smoke", false, "run the end-to-end self-test and exit")
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

	if *smoke {
		stop() // the self-check keeps the default signal actions
		err := runSmoke(logger, "http://"+ln.Addr().String(), srv, httpSrv, *drain)
		if err != nil {
			logger.Fatalf("smoke: %v", err)
		}
		logger.Print("smoke: ok")
		return
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

// runSmoke drives one tiny run end-to-end over real HTTP against the
// just-started daemon: submit, follow the SSE stream to completion,
// fetch result and figures, then drain cleanly. It is the build-start-
// run-shutdown check `make daemon-smoke` runs in CI.
func runSmoke(logger *log.Logger, base string, srv *serve.Server, httpSrv *http.Server, drain time.Duration) error {
	defer shutdown(srv, httpSrv, drain)
	client := &http.Client{Timeout: 2 * time.Minute}

	body := `{"suite_n": 2, "policies": ["LRU", "GHRP"], "scale": 0.01, "progress_every": 4096}`
	resp, err := client.Post(base+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST /runs: %s: %s", resp.Status, blob)
	}
	id, err := jsonField(blob, `"id":`)
	if err != nil {
		return err
	}
	logger.Printf("smoke: submitted run %s…", id[:12])

	// Follow the event stream to the terminal status frame.
	resp, err = client.Get(base + "/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	events, sawStatus := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: event":
			events++
		case line == "event: status":
			sawStatus = true
		case sawStatus && strings.HasPrefix(line, "data: "):
			if !strings.Contains(line, `"state": "done"`) && !strings.Contains(line, `"state":"done"`) {
				return fmt.Errorf("terminal status not done: %s", line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading SSE stream: %w", err)
	}
	if events == 0 || !sawStatus {
		return fmt.Errorf("SSE stream ended with %d events, status frame seen: %v", events, sawStatus)
	}
	logger.Printf("smoke: streamed %d events to completion", events)

	for _, path := range []string{"/runs/" + id + "/result", "/runs/" + id + "/figures", "/healthz"} {
		resp, err := client.Get(base + path)
		if err != nil {
			return err
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s: %s", path, resp.Status, blob)
		}
		if len(blob) == 0 {
			return fmt.Errorf("GET %s: empty body", path)
		}
	}
	logger.Print("smoke: result, figures and health all served")
	return nil
}

// jsonField extracts the first string value following marker in blob —
// just enough JSON poking for the smoke path, which deliberately avoids
// importing the serve package's types (it tests the wire, not the Go
// API).
func jsonField(blob []byte, marker string) (string, error) {
	s := string(blob)
	i := strings.Index(s, marker)
	if i < 0 {
		return "", errors.New("smoke: no " + marker + " in response")
	}
	s = s[i+len(marker):]
	i = strings.IndexByte(s, '"')
	if i < 0 {
		return "", errors.New("smoke: malformed " + marker)
	}
	s = s[i+1:]
	i = strings.IndexByte(s, '"')
	if i < 0 {
		return "", errors.New("smoke: malformed " + marker)
	}
	return s[:i], nil
}
