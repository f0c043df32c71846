package serve

import (
	"net/http"
	"strings"
	"testing"

	"ghrpsim/internal/faultinject"
)

// oneCell is the smallest possible job: one workload, one policy.
const oneCell = `{"suite_n": 1, "policies": ["LRU"], "scale": 0.001}`

// TestFaultExecutorPanic injects a panic at the executor's own
// serve-job site — outside the sim scheduler's containment — and checks
// it becomes a failed run status, not a dead daemon.
func TestFaultExecutorPanic(t *testing.T) {
	faults := faultinject.New(faultinject.Rule{Op: faultinject.OpServeJob, Action: faultinject.Panic})
	_, ts := newTestServer(t, Config{Slots: 1, QueueDepth: 2, Faults: faults,
		Defaults: Defaults{JobParallelism: 1}})

	sub, code := submit(t, ts, oneCell)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d", code)
	}
	id := sub.Status.ID

	// The job fails; its status is still HTTP 200 — the failure is data.
	doc := waitState(t, ts, id, StateFailed)
	if !strings.Contains(doc.Error, "injected panic") || !strings.Contains(doc.Error, "serve-job") {
		t.Fatalf("failed run error = %q, want the injected panic detail", doc.Error)
	}
	if code := getJSON(t, ts, "/runs/"+id, nil); code != http.StatusOK {
		t.Fatalf("status of failed run: code %d, want 200", code)
	}
	if code := getJSON(t, ts, "/runs/"+id+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of failed run: code %d, want 409", code)
	}

	// The daemon survived: healthz is fine and the SSE stream of the
	// failed run terminates with its status rather than hanging.
	var health HealthDoc
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after panic: code %d, %+v", code, health)
	}
	resp, err := http.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	_, final, sawFinal := readSSE(t, resp.Body)
	resp.Body.Close()
	if !sawFinal || final.State != string(StateFailed) {
		t.Fatalf("SSE of failed run: terminal frame seen %v, state %q", sawFinal, final.State)
	}

	// Resubmitting the same identity replaces the failed attempt with a
	// fresh run (the injector's single-shot rule is spent), and it
	// completes.
	sub2, code := submit(t, ts, oneCell)
	if code != http.StatusCreated || !sub2.Created {
		t.Fatalf("resubmit after failure: code %d created %v", code, sub2.Created)
	}
	if sub2.Status.ID != id {
		t.Fatalf("fresh attempt has id %s, want the same content address", sub2.Status.ID)
	}
	waitState(t, ts, id, StateDone)
}

// TestFaultSimPanic injects the panic inside the sim scheduler instead
// (a task panic) and checks it surfaces the same way through HTTP: the
// scheduler's own containment reports the cell failure, the daemon
// stays up.
func TestFaultSimPanic(t *testing.T) {
	faults := faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Action: faultinject.Panic})
	_, ts := newTestServer(t, Config{Slots: 1, QueueDepth: 2, Faults: faults,
		Defaults: Defaults{JobParallelism: 1}})

	sub, code := submit(t, ts, oneCell)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d", code)
	}
	doc := waitState(t, ts, sub.Status.ID, StateFailed)
	if !strings.Contains(doc.Error, "panic") {
		t.Fatalf("failed run error = %q, want the contained task panic", doc.Error)
	}
	var health HealthDoc
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after sim panic: code %d, %+v", code, health)
	}
}

// TestFaultKeepGoing submits the same faulted grid with keep_going: the
// run completes as done, annotating the failed cell in the result.
func TestFaultKeepGoing(t *testing.T) {
	faults := faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Action: faultinject.Panic})
	_, ts := newTestServer(t, Config{Slots: 1, QueueDepth: 2, Faults: faults,
		Defaults: Defaults{JobParallelism: 1}})

	sub, code := submit(t, ts, `{"suite_n": 2, "policies": ["LRU"], "scale": 0.001, "keep_going": true}`)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d", code)
	}
	id := sub.Status.ID
	doc := waitState(t, ts, id, StateDone)
	if doc.Progress.WorkloadsFailed != 1 {
		t.Fatalf("progress = %+v, want 1 failed workload", doc.Progress)
	}
	var result ResultDoc
	if code := getJSON(t, ts, "/runs/"+id+"/result", &result); code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	if len(result.Failed) != 1 || !strings.Contains(result.Failed[0].Error, "panic") {
		t.Fatalf("result.Failed = %+v, want the annotated panic", result.Failed)
	}
}

// TestFaultTransientRetry injects a transient task error and checks the
// scheduler's retry succeeds, with the retry visible in the run's
// progress counters over HTTP.
func TestFaultTransientRetry(t *testing.T) {
	faults := faultinject.New(faultinject.Rule{Op: faultinject.OpTask, Action: faultinject.Transient})
	_, ts := newTestServer(t, Config{Slots: 1, QueueDepth: 2, Faults: faults,
		Defaults: Defaults{JobParallelism: 1}})

	sub, code := submit(t, ts, oneCell)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d", code)
	}
	doc := waitState(t, ts, sub.Status.ID, StateDone)
	if doc.Progress.Retries != 1 {
		t.Fatalf("progress retries = %d, want 1", doc.Progress.Retries)
	}
}
