package main

import (
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ghrpsim/internal/serve"
)

// TestSmoke runs the daemon's -smoke self-test in process: ephemeral
// port, one tiny run submitted over real HTTP, SSE stream followed to
// completion, result/figures/health fetched, graceful drain. The same
// path runs as `make daemon-smoke` via `go run ./cmd/ghrpd -smoke`.
func TestSmoke(t *testing.T) {
	srv := serve.New(serve.Config{
		Slots:      2,
		QueueDepth: 4,
		Defaults:   serve.Defaults{JobParallelism: 2},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)

	logger := log.New(io.Discard, "", 0)
	if err := runSmoke(logger, "http://"+ln.Addr().String(), srv, httpSrv, 10*time.Second); err != nil {
		t.Fatalf("smoke: %v", err)
	}
}

// Sizing flags the daemon cannot honour are rejected before it starts;
// -slots 0 used to panic dividing GOMAXPROCS by it.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name                                    string
		slots, queue, jobPar, maxCells, maxRuns int
		wantErr                                 string
	}{
		{"defaults", 2, 16, 0, 0, 1024, ""},
		{"one slot, no queue", 1, 0, 1, 1, 0, ""},
		{"zero slots", 0, 16, 0, 0, 1024, "-slots 0"},
		{"negative slots", -1, 16, 0, 0, 1024, "-slots -1"},
		{"negative queue", 2, -1, 0, 0, 1024, "-queue -1"},
		{"negative job parallelism", 2, 16, -2, 0, 1024, "-job-parallelism -2"},
		{"negative max cells", 2, 16, 0, -5, 1024, "-max-cells -5"},
		{"negative max runs", 2, 16, 0, 0, -1, "-max-runs -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.slots, tc.queue, tc.jobPar, tc.maxCells, tc.maxRuns)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
			case err != nil && strings.Contains(err.Error(), "\n"):
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

func TestJSONField(t *testing.T) {
	blob := []byte("{\n\t\"created\": true,\n\t\"status\": {\n\t\t\"id\": \"abc123\"\n\t}\n}")
	id, err := jsonField(blob, `"id":`)
	if err != nil || id != "abc123" {
		t.Fatalf("jsonField = %q, %v", id, err)
	}
	if _, err := jsonField([]byte(`{}`), `"id":`); err == nil {
		t.Fatal("missing field accepted")
	}
}
