package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghrpsim/internal/obs"
	"ghrpsim/internal/serve"
)

func testClient(t *testing.T, h http.Handler, events obs.Observer) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, fastRetry(), nil, events, "test")
}

func TestClientRetriesTransientStatuses(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"id":"x","state":"done"}`)
	})
	var retries atomic.Int64
	c := testClient(t, h, func(e obs.Event) {
		if e.Kind == obs.DistRetry {
			retries.Add(1)
		}
	})
	st, err := c.Status(context.Background(), "x")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.State != "done" || calls.Load() != 3 || retries.Load() != 2 {
		t.Errorf("state=%q calls=%d retries=%d, want done/3/2", st.State, calls.Load(), retries.Load())
	}
}

func TestClientHonorsRetryAfterCapped(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// An uncapped client would sleep the full 30s and time the
			// test out; MaxRetryAfter bounds the worker's estimate.
			w.Header().Set("Retry-After", "30")
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"id":"x","state":"done"}`)
	})
	c := testClient(t, h, nil)
	start := time.Now()
	if _, err := c.Status(context.Background(), "x"); err != nil {
		t.Fatalf("Status: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry waited %v; Retry-After was not capped by MaxRetryAfter", elapsed)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
}

func TestClientPermanent4xxDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
	})
	c := testClient(t, h, nil)
	_, err := c.Status(context.Background(), "x")
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want HTTPError 404", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (4xx must not retry)", calls.Load())
	}
}

func TestClientCancelTreats404AsSuccess(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such run"}`, http.StatusNotFound)
	})
	c := testClient(t, h, nil)
	if err := c.Cancel(context.Background(), "gone"); err != nil {
		t.Fatalf("Cancel of a forgotten run: %v, want nil", err)
	}
}

// TestClientTailResumesWithLastEventID pins the reconnect contract at
// the wire level: a stream that dies mid-flight is resumed with the
// Last-Event-ID header and the client sees every event exactly once.
func TestClientTailResumesWithLastEventID(t *testing.T) {
	var conns atomic.Int64
	var gotResume atomic.Value // string: the resume header of conn 2
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fl := w.(http.Flusher)
		if n == 1 {
			// Two frames, then the connection dies without a status.
			fmt.Fprint(w, "id: 0\nevent: event\ndata: {\"seq\":0,\"kind\":\"run-start\"}\n\n")
			fmt.Fprint(w, "id: 1\nevent: event\ndata: {\"seq\":1,\"kind\":\"tick\"}\n\n")
			fl.Flush()
			return // server closes: truncated stream
		}
		gotResume.Store(r.Header.Get("Last-Event-ID"))
		fmt.Fprint(w, "id: 2\nevent: event\ndata: {\"seq\":2,\"kind\":\"tick\"}\n\n")
		fmt.Fprint(w, "id: 3\nevent: event\ndata: {\"seq\":3,\"kind\":\"run-done\"}\n\n")
		fmt.Fprint(w, "event: status\ndata: {\"id\":\"x\",\"state\":\"done\"}\n\n")
		fl.Flush()
	})
	var mu sync.Mutex
	var seqs []int
	c := testClient(t, h, nil)
	st, err := c.Tail(context.Background(), "x", func(e serve.EventDoc) {
		mu.Lock()
		seqs = append(seqs, e.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	if st.State != "done" {
		t.Errorf("terminal state = %q, want done", st.State)
	}
	if want := []int{0, 1, 2, 3}; len(seqs) != 4 || seqs[0] != 0 || seqs[1] != 1 || seqs[2] != 2 || seqs[3] != 3 {
		t.Errorf("seqs = %v, want %v (each event exactly once, in order)", seqs, want)
	}
	if got := gotResume.Load(); got != "1" {
		t.Errorf("reconnect Last-Event-ID = %v, want \"1\"", got)
	}
}

// TestClientTailPollsAfterResetBudget pins the degradation: a stream
// that never yields a status frame falls back to polling the run's
// status endpoint until it is terminal.
func TestClientTailPollsAfterResetBudget(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /runs/x/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK) // and nothing else: instant EOF
	})
	mux.HandleFunc("GET /runs/x", func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) < 3 {
			fmt.Fprint(w, `{"id":"x","state":"running"}`)
			return
		}
		fmt.Fprint(w, `{"id":"x","state":"done"}`)
	})
	c := testClient(t, mux, nil)
	st, err := c.Tail(context.Background(), "x", func(serve.EventDoc) {})
	if err != nil {
		t.Fatalf("Tail: %v", err)
	}
	if st.State != "done" || polls.Load() < 3 {
		t.Errorf("state=%q polls=%d, want done after >= 3 polls", st.State, polls.Load())
	}
}

// decodeEveryFrame is the reference reader Tail's prefix path must
// agree with: it decodes every event frame in full, and hands onEvent
// the frame's data alongside. honest reports whether each event frame
// whose data eventPrefix accepts as a non-tick decodes to that same seq
// and kind; on such input the two readers must deliver the same events,
// cursors and errors.
func decodeEveryFrame(body string, next *int, onEvent func(e serve.EventDoc, data string)) (st serve.StatusDoc, honest bool, err error) {
	honest = true
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "event":
				var e serve.EventDoc
				err := json.Unmarshal([]byte(data), &e)
				if seq, kind, ok := eventPrefix([]byte(data)); ok && kind != "tick" && (err != nil || e.Seq != seq || e.Kind != kind) {
					honest = false
				}
				if err != nil {
					return st, honest, err
				}
				if e.Seq >= *next {
					onEvent(e, data)
					*next = e.Seq + 1
				}
			case "status":
				err := json.Unmarshal([]byte(data), &st)
				return st, honest, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return st, honest, err
	}
	return st, honest, errStreamReset
}

// tailFrames is a shard stream as a worker sends it, with three frames
// no worker sends: one with its fields reordered (no prefix, so it is
// decoded in full), a stale repeat of an earlier frame, and — when
// malformed is set — a tick whose records field is a string.
func tailFrames(malformed bool) string {
	frames := []string{
		`{"seq":0,"kind":"run-start","workload_index":0,"workloads":2,"policy_index":0,"policies":2}`,
		`{"seq":1,"kind":"workload-start","workload":"<a&b>","workload_index":0,"workloads":2,"policy_index":0}`,
		`{"seq":2,"kind":"tick","workload":"<a&b>","workload_index":0,"policy":"LRU","policy_index":0,"records":4096,"instructions":9000,"elapsed_ms":1.25}`,
		`{"seq":3,"kind":"policy-done","workload":"<a&b>","workload_index":0,"policy":"LRU","policy_index":0,"records":5000,"elapsed_ms":2.5,"cache_miss":true}`,
		`{"kind":"workload-done","workload":"<a&b>","seq":4,"workload_index":0,"elapsed_ms":3}`,
		`{"seq":2,"kind":"tick","workload":"<a&b>","workload_index":0,"policy":"LRU","policy_index":0,"records":4096}`,
		`{"seq":5,"kind":"tick","workload":"w1","workload_index":1,"policy":"GHRP","policy_index":1,"records":128}`,
		`{"seq":6,"kind":"workload-failed","workload":"w1","workload_index":1,"policy_index":0,"error":"boom \"x\""}`,
	}
	if malformed {
		frames = append(frames, `{"seq":7,"kind":"tick","workload_index":1,"policy_index":0,"records":"many"}`)
	}
	frames = append(frames, `{"seq":8,"kind":"run-done","workload_index":0,"policy_index":0,"elapsed_ms":9}`)
	var b strings.Builder
	for _, f := range frames {
		var e serve.EventDoc
		json.Unmarshal([]byte(f), &e) // the malformed tick still yields its seq
		fmt.Fprintf(&b, "id: %d\nevent: event\ndata: %s\n\n", e.Seq, f)
	}
	b.WriteString("event: status\ndata: {\"id\":\"x\",\"state\":\"done\",\"events\":9}\n\n")
	return b.String()
}

// TestClientTailMatchesDecodeEveryFrame runs Tail over a worker that
// serves tailFrames and compares it with decodeEveryFrame: the same
// ticks in full, the same onEvent calls (lifecycle frames reduced to
// Seq and Kind), the same resume cursor, and the malformed tick still
// failing every stream until Tail falls back to polling.
func TestClientTailMatchesDecodeEveryFrame(t *testing.T) {
	for _, malformed := range []bool{false, true} {
		t.Run(fmt.Sprintf("malformed=%v", malformed), func(t *testing.T) {
			body := tailFrames(malformed)
			var ref []serve.EventDoc
			refNext := 0
			refSt, honest, refErr := decodeEveryFrame(body, &refNext, func(e serve.EventDoc, _ string) { ref = append(ref, e) })
			if !honest || (refErr != nil) != malformed {
				t.Fatalf("reference: honest %v err %v", honest, refErr)
			}
			var want []serve.EventDoc
			for _, e := range ref {
				if e.Kind != "tick" && e.Kind != "workload-done" { // workload-done is the reordered frame
					e = serve.EventDoc{Seq: e.Seq, Kind: e.Kind}
				}
				want = append(want, e)
			}

			var mu sync.Mutex
			var resumes []string
			mux := http.NewServeMux()
			mux.HandleFunc("GET /runs/x/events", func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				resumes = append(resumes, r.Header.Get("Last-Event-ID"))
				mu.Unlock()
				w.Header().Set("Content-Type", "text/event-stream")
				from := 0
				if id := r.Header.Get("Last-Event-ID"); id != "" {
					n, _ := strconv.Atoi(id)
					from = n + 1
				}
				// Replay the frames from the resume point on, as the hub does.
				frames := strings.SplitAfter(body, "\n\n")
				for _, f := range frames {
					var id int
					if _, err := fmt.Sscanf(f, "id: %d\n", &id); err == nil && id < from {
						continue
					}
					fmt.Fprint(w, f)
				}
			})
			mux.HandleFunc("GET /runs/x", func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, `{"id":"x","state":"done","events":9}`)
			})
			var got []serve.EventDoc
			st, err := testClient(t, mux, nil).Tail(context.Background(), "x", func(e serve.EventDoc) { got = append(got, e) })
			if err != nil {
				t.Fatalf("Tail: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("onEvent calls\n got %+v\nwant %+v", got, want)
			}
			if st.State != "done" || (!malformed && !reflect.DeepEqual(st, refSt)) {
				t.Errorf("terminal status %+v, reference %+v", st, refSt)
			}
			wantResumes := []string{""}
			if malformed {
				for i := 0; i < DefaultStreamResets; i++ {
					wantResumes = append(wantResumes, strconv.Itoa(refNext-1))
				}
			}
			if !reflect.DeepEqual(resumes, wantResumes) {
				t.Errorf("Last-Event-ID per connection = %q, want %q", resumes, wantResumes)
			}
		})
	}
}

// FuzzTailFrames feeds arbitrary SSE bodies through the prefix path and
// through decodeEveryFrame. The prefix path must never panic, must fail
// only where the reference fails, and wherever every lifecycle prefix
// tells the truth about its frame it must match the reference exactly:
// the same onEvent calls (lifecycle frames reduced to Seq and Kind),
// cursor, status and error.
func FuzzTailFrames(f *testing.F) {
	f.Add(tailFrames(false))
	f.Add(tailFrames(true))
	f.Add("event: event\ndata: {\"seq\":3,\"kind\":\"tick\",\"seq\":1}\n\nevent: event\ndata: {\"seq\":1,\"kind\":\"run-done\",\"seq\":9}\n\n")
	f.Add("event: event\ndata: {\"seq\":01,\"kind\":\"run-done\"}\n\nevent: status\ndata: {}\n\n")
	f.Add("event: event\ndata: {\"seq\":12,\"kind\":\"policy-done\" garbage\n\n")
	f.Fuzz(func(t *testing.T, body string) {
		var want, got []serve.EventDoc
		refNext, next := 0, 0
		refSt, honest, refErr := decodeEveryFrame(body, &refNext, func(e serve.EventDoc, data string) {
			if _, kind, ok := eventPrefix([]byte(data)); ok && kind != "tick" {
				e = serve.EventDoc{Seq: e.Seq, Kind: e.Kind}
			}
			want = append(want, e)
		})
		st, err := (&Client{}).readEvents(strings.NewReader(body), &next, func(e serve.EventDoc) { got = append(got, e) })
		if err != nil && refErr == nil {
			t.Fatalf("prefix path failed (%v) where the reference did not", err)
		}
		if !honest {
			return
		}
		if (err == nil) != (refErr == nil) || next != refNext || (err == nil && !reflect.DeepEqual(st, refSt)) || !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix path: next %d status %+v err %v events %+v\nreference:   next %d status %+v err %v events %+v",
				next, st, err, got, refNext, refSt, refErr, want)
		}
	})
}
