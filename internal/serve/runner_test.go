package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ghrpsim/internal/sim"
)

// Two small generated-suite jobs: the paper's configuration, and the
// same grid under another cache geometry, so workers the executor's
// Runner hands from one job to the next must rebuild between them.
const (
	reuseJobPaper = `{"suite": {"n": 6, "footprint_min": 0.2, "footprint_max": 1.0}, "scale": 0.002}`
	reuseJobSmall = `{"suite": {"n": 6, "footprint_min": 0.2, "footprint_max": 1.0}, "scale": 0.002, "config": {"icache_kb": 16, "ways": 4}}`
)

// freshResult is what a job's result document must hold, stats aside:
// the job run on a one-shot sim.RunContext, folded like the executor
// folds it.
func freshResult(t *testing.T, d Defaults, id, body string) []byte {
	t.Helper()
	req, err := decodeRunRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	j, err := Normalize(req, d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunContext(context.Background(), j.Options)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ResultDocFor(id, m))
	if err != nil {
		t.Fatal(err)
	}
	return stripStats(t, blob)
}

// runJobs submits bodies at once, waits for all of them, and returns
// each run's id and stats-stripped result document.
func runJobs(t *testing.T, ts *httptest.Server, bodies ...string) (ids []string, docs [][]byte) {
	t.Helper()
	ids = make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sub SubmitResponse
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("submit %s: code %d", body, resp.StatusCode)
			} else if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Error(err)
			}
			ids[i] = sub.Status.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
		resp, err := http.Get(ts.URL + "/runs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		docs = append(docs, stripStats(t, blob))
		// Forget the run, so an identical submission executes again
		// instead of joining this one.
		if code := del(t, ts, id); code != http.StatusOK {
			t.Fatalf("delete %s: code %d", id, code)
		}
	}
	return ids, docs
}

// Identical jobs in a row on one daemon run on the executor's reused
// workers and give the same result documents as a fresh run, including
// after a job under another configuration has used those workers.
func TestExecutorReuseJobsInARow(t *testing.T) {
	d := Defaults{JobParallelism: 2}
	s, ts := newTestServer(t, Config{Slots: 1, QueueDepth: 4, Defaults: d})
	d = s.dflt
	ids, first := runJobs(t, ts, reuseJobPaper)
	want := freshResult(t, d, ids[0], reuseJobPaper)
	if !bytes.Equal(first[0], want) {
		t.Fatalf("first job differs from a fresh run:\n got %s\nwant %s", first[0], want)
	}
	for _, body := range []string{reuseJobPaper, reuseJobSmall, reuseJobPaper} {
		ids, got := runJobs(t, ts, body)
		if want := freshResult(t, d, ids[0], body); !bytes.Equal(got[0], want) {
			t.Fatalf("repeated job %s differs from a fresh run:\n got %s\nwant %s", body, got[0], want)
		}
	}
}

// Two jobs on two slots share the executor's Runner concurrently,
// under different configurations, twice over; every result stays equal
// to a fresh run. make race-smoke runs this under the race detector.
func TestExecutorConcurrentJobsShareRunner(t *testing.T) {
	d := Defaults{JobParallelism: 2}
	s, ts := newTestServer(t, Config{Slots: 2, QueueDepth: 4, Defaults: d})
	d = s.dflt
	bodies := []string{reuseJobPaper, reuseJobSmall}
	for round := 0; round < 2; round++ {
		ids, docs := runJobs(t, ts, bodies...)
		for i, body := range bodies {
			if want := freshResult(t, d, ids[i], body); !bytes.Equal(docs[i], want) {
				t.Fatalf("round %d: job %s differs from a fresh run:\n got %s\nwant %s", round, body, docs[i], want)
			}
		}
	}
}
