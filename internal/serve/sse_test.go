package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ghrpsim/internal/obs"
	"ghrpsim/internal/resultcache"
)

// shardLog is the event log of one 16-workload, five-policy shard: a
// run-start, per workload a workload-start, five policy-dones and a
// workload-done, then a run-done — 114 events and no tick. One workload
// name needs HTML escaping and one event carries an error, so the
// frames exercise json.Marshal's escaping.
func shardLog() []obs.Event {
	const workloads, policies = 16, 5
	log := []obs.Event{{Kind: obs.RunStart, Workloads: workloads, Policies: policies}}
	for wi := 0; wi < workloads; wi++ {
		name := fmt.Sprintf("GEN-%03d", wi)
		if wi == 3 {
			name = "<gen & co>"
		}
		log = append(log, obs.Event{Kind: obs.WorkloadStart, Workload: name, WorkloadIndex: wi, Workloads: workloads})
		for pi := 0; pi < policies; pi++ {
			log = append(log, obs.Event{
				Kind: obs.PolicyDone, Workload: name, WorkloadIndex: wi, Workloads: workloads,
				Policy: fmt.Sprintf("P%d", pi), PolicyIndex: pi, Policies: policies,
				Records: uint64(1000 + 7*wi + pi), Instructions: uint64(4000 + 13*wi),
				Elapsed: time.Duration(wi*policies+pi) * 333 * time.Microsecond, CacheMiss: pi%2 == 0,
			})
		}
		done := obs.Event{Kind: obs.WorkloadDone, Workload: name, WorkloadIndex: wi, Workloads: workloads, Elapsed: time.Duration(wi) * time.Millisecond}
		if wi == 7 {
			done.Kind, done.Err = obs.WorkloadFailed, errors.New(`trace "x" <truncated>`)
		}
		log = append(log, done)
	}
	return append(log, obs.Event{Kind: obs.RunDone, Workloads: workloads, Elapsed: 2 * time.Second})
}

// wantFrame is one event frame with json.Marshal of the wire document
// as its data: the bytes every frame on the stream must equal.
func wantFrame(t *testing.T, seq int, e obs.Event) string {
	t.Helper()
	blob, err := json.Marshal(eventDoc(seq, e))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("id: %d\nevent: event\ndata: %s\n\n", seq, blob)
}

// flushCounter is a response recorder that counts flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// newStoredRun registers a run the executor never schedules, so a test
// drives its hub by hand.
func newStoredRun(t *testing.T, s *Server, id string) *Run {
	t.Helper()
	run, created := s.Store().GetOrCreate(context.Background(), Job{Key: resultcache.Key(id)}, time.Unix(0, 0))
	if !created {
		t.Fatalf("run %s already stored", id)
	}
	return run
}

// TestEventsReplayFlushesOncePerBatch replays a finished run's log: the
// stream is flushed a bounded number of times however long the log,
// and the bytes are the per-frame json.Marshal frames followed by the
// terminal status frame.
func TestEventsReplayFlushesOncePerBatch(t *testing.T) {
	s := New(Config{Heartbeat: time.Hour})
	t.Cleanup(func() { s.Drain(context.Background()) })
	run := newStoredRun(t, s, "replay")
	log := shardLog()
	for _, e := range log {
		run.Hub().Observe(e)
	}
	run.Hub().Close()

	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs/replay/events", nil))
	// One flush sends the headers, one the drained log and status frame.
	if rec.flushes > 2 {
		t.Errorf("replaying %d events flushed %d times, want at most 2", len(log), rec.flushes)
	}
	var want strings.Builder
	for seq, e := range log {
		want.WriteString(wantFrame(t, seq, e))
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, want.String()) {
		t.Fatalf("event frames differ from per-frame json.Marshal:\ngot  %.400q\nwant %.400q", body, want.String())
	}
	status, ok := strings.CutPrefix(body[want.Len():], "event: status\ndata: ")
	if !ok || !strings.HasSuffix(status, "\n\n") || strings.Count(status, "\n") != 2 {
		t.Fatalf("tail after the event frames = %q, want one status frame", body[want.Len():])
	}
	var st StatusDoc
	if err := json.Unmarshal([]byte(status), &st); err != nil || st.ID != "replay" || st.Events != len(log) {
		t.Fatalf("status frame %q: id %q events %d err %v", status, st.ID, st.Events, err)
	}
}

// TestEventsLiveTailDeliversEachEvent pins that batching never holds a
// live event back: each event observed while a subscriber tails the
// run reaches it before the next is observed.
func TestEventsLiveTailDeliversEachEvent(t *testing.T) {
	s, ts := newTestServer(t, Config{Heartbeat: time.Hour})
	run := newStoredRun(t, s, "live")
	resp, err := http.Get(ts.URL + "/runs/live/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	frames := make(chan string)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(frames)
		br := bufio.NewReader(resp.Body)
		var frame strings.Builder
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			frame.WriteString(line)
			if line == "\n" {
				select {
				case frames <- frame.String():
				case <-done:
					return
				}
				frame.Reset()
			}
		}
	}()
	next := func() string {
		select {
		case f := <-frames:
			return f
		case <-time.After(10 * time.Second):
			t.Fatal("no frame within 10s")
			return ""
		}
	}

	log := shardLog()[:12]
	for seq, e := range log {
		run.Hub().Observe(e)
		if got, want := next(), wantFrame(t, seq, e); got != want {
			t.Fatalf("live frame %d = %q, want %q", seq, got, want)
		}
	}
	run.Hub().Close()
	if got := next(); !strings.HasPrefix(got, "event: status\ndata: {") {
		t.Fatalf("terminal frame = %q, want a status frame", got)
	}
	if f, open := <-frames; open {
		t.Fatalf("frame %q after the status frame", f)
	}
}

// TestEventDocPrefix pins the field order coordinators read without a
// full decode: every encoded EventDoc begins {"seq":N,"kind":"K".
func TestEventDocPrefix(t *testing.T) {
	for seq, e := range shardLog() {
		blob, err := json.Marshal(eventDoc(seq, e))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`{"seq":%d,"kind":%q`, seq, e.Kind.String()); !bytes.HasPrefix(blob, []byte(want)) {
			t.Fatalf("encoded event %s does not begin %s", blob, want)
		}
	}
	blob, _ := json.Marshal(eventDoc(12345, obs.Event{Kind: obs.Tick, Workload: "w"}))
	if want := `{"seq":12345,"kind":"tick",`; !bytes.HasPrefix(blob, []byte(want)) {
		t.Fatalf("encoded tick %s does not begin %s", blob, want)
	}
}
