package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ghrpsim/internal/faultinject"
	"ghrpsim/internal/obs"
	"ghrpsim/internal/serve"
	"ghrpsim/internal/sim"
)

// RetryPolicy bounds the client's per-call retry loop. The zero value
// selects the package defaults.
type RetryPolicy struct {
	// MaxAttempts is the per-call attempt budget (first try included).
	MaxAttempts int
	// Backoff is the base delay before the first retry, doubled per
	// attempt with deterministic jitter; MaxBackoff caps the growth.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long a worker's Retry-After header is
	// honored for — the client paces itself by the worker's estimate,
	// bounded by its own policy.
	MaxRetryAfter time.Duration
	// AttemptTimeout bounds one unary HTTP attempt.
	AttemptTimeout time.Duration
	// StreamResets is how many consecutive SSE reconnect failures a
	// tail tolerates before degrading to status polling.
	StreamResets int
	// PollEvery paces the status-polling fallback.
	PollEvery time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.Backoff == 0 {
		p.Backoff = DefaultBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 5 * time.Second
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = DefaultAttemptTimeout
	}
	if p.StreamResets <= 0 {
		p.StreamResets = DefaultStreamResets
	}
	if p.PollEvery <= 0 {
		p.PollEvery = DefaultPollEvery
	}
	return p
}

// HTTPError is a non-2xx response the retry loop classified as
// permanent (4xx other than 429).
type HTTPError struct {
	Status int
	Msg    string
}

// Error describes the refused request.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("dist: worker answered %d: %s", e.Status, e.Msg)
}

// Client is a fault-tolerant stdlib-only client for one ghrpd worker's
// HTTP API. Unary calls retry transient failures — transport errors,
// 5xx, 429 (honoring Retry-After), undecodable bodies — with capped
// exponential backoff and deterministic jitter; Tail follows the SSE
// event stream with Last-Event-ID reconnect and a status-polling
// fallback. Safe for concurrent use.
//
// Retrying POST /runs is safe by construction: submissions are
// content-addressed, so a duplicate of a request whose response was
// lost joins the already-running job instead of starting a second one.
type Client struct {
	base   string
	hc     *http.Client
	retry  RetryPolicy
	faults *faultinject.Injector
	// events receives DistRetry observations (nil = none); the
	// coordinator routes them into its stats and the user's observer.
	events obs.Observer
	worker string
}

// NewClient returns a client for the worker at base (e.g.
// "http://127.0.0.1:8317"). faults arms the transport injection sites
// (nil = none); events receives DistRetry observations; worker labels
// them.
func NewClient(base string, retry RetryPolicy, faults *faultinject.Injector, events obs.Observer, worker string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		// No client-level timeout: SSE tails are long-lived by design.
		// Unary attempts are bounded by per-attempt contexts instead.
		hc:     &http.Client{},
		retry:  retry.withDefaults(),
		faults: faults,
		events: events,
		worker: worker,
	}
}

// Submit POSTs a run request, returning the worker's submit response
// (created or deduplicated onto an existing run).
func (c *Client) Submit(ctx context.Context, req serve.RunRequest) (serve.SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.SubmitResponse{}, err
	}
	var out serve.SubmitResponse
	err = c.doJSON(ctx, http.MethodPost, "/runs", body, &out)
	return out, err
}

// Status GETs one run's status document.
func (c *Client) Status(ctx context.Context, id string) (serve.StatusDoc, error) {
	var out serve.StatusDoc
	err := c.doJSON(ctx, http.MethodGet, "/runs/"+id, nil, &out)
	return out, err
}

// Result GETs one completed run's result document.
func (c *Client) Result(ctx context.Context, id string) (serve.ResultDoc, error) {
	var out serve.ResultDoc
	err := c.doJSON(ctx, http.MethodGet, "/runs/"+id+"/result", nil, &out)
	return out, err
}

// Cancel DELETEs a run — cancelling it if live, forgetting it if
// terminal. A worker that no longer knows the run (404) counts as
// success: the goal state holds.
func (c *Client) Cancel(ctx context.Context, id string) error {
	err := c.doJSON(ctx, http.MethodDelete, "/runs/"+id, nil, nil)
	var he *HTTPError
	if errors.As(err, &he) && he.Status == http.StatusNotFound {
		return nil
	}
	return err
}

// Health probes GET /healthz with a single attempt — no retries, so the
// prober's consecutive-failure accounting stays exact. The HealthDoc is
// decoded whatever the status code: a 503 "draining" body is a live
// answer, distinguishable from a dead worker's transport error.
func (c *Client) Health(ctx context.Context) (serve.HealthDoc, error) {
	var doc serve.HealthDoc
	actx, cancel := context.WithTimeout(ctx, c.retry.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return doc, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("dist: decoding health: %w", err)
	}
	return doc, nil
}

// doJSON performs one unary call with the retry loop: transport errors,
// 5xx, 429/503 (pacing by Retry-After when present) and undecodable
// bodies retry with capped exponential backoff and deterministic
// jitter; other 4xx return an *HTTPError immediately.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	for attempt := 1; ; attempt++ {
		retryAfter, err := c.try(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var he *HTTPError
		if errors.As(err, &he) && he.Status != http.StatusTooManyRequests && he.Status != http.StatusServiceUnavailable && he.Status < 500 {
			return err
		}
		lastErr = err
		if attempt >= c.retry.MaxAttempts {
			return fmt.Errorf("dist: %s %s failed after %d attempts: %w", method, path, attempt, lastErr)
		}
		delay := sim.RetryDelay(c.retry.Backoff, c.retry.MaxBackoff, attempt, c.retry.Seed)
		if retryAfter > 0 {
			// The worker told us when a retry is worth it; pace by its
			// estimate, bounded by our own policy.
			delay = min(retryAfter, c.retry.MaxRetryAfter)
		}
		c.observeRetry(attempt, err)
		if !sleep(ctx, delay) {
			return fmt.Errorf("dist: %s %s: %w (last error: %v)", method, path, context.Cause(ctx), lastErr)
		}
	}
}

// try is one attempt of a unary call. It returns the parsed Retry-After
// delay (0 = none) alongside the attempt's error.
func (c *Client) try(ctx context.Context, method, path string, body []byte, out any) (time.Duration, error) {
	if c.faults != nil {
		// A firing Transient rule is a dropped connection: the request
		// never reaches the wire.
		if err := c.faults.Fire(ctx, faultinject.OpDistConn); err != nil {
			return 0, err
		}
	}
	actx, cancel := context.WithTimeout(ctx, c.retry.AttemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, err
	}
	if c.faults != nil && c.faults.Hit(faultinject.OpDistBody) {
		// A firing Corrupt rule garbles the body after the read — the
		// decode below fails and the attempt retries.
		data = []byte("\x00faultinject: corrupted response\x00")
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := strings.TrimSpace(string(data))
		var ed serve.ErrorDoc
		if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
			msg = ed.Error
		}
		var ra time.Duration
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		return ra, &HTTPError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return 0, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return 0, fmt.Errorf("dist: decoding %s %s response: %w", method, path, err)
	}
	return 0, nil
}

// Tail follows the run's SSE event stream to its terminal status frame,
// invoking onEvent for every event in log order exactly once. Only tick
// frames, the one kind the coordinator forwards, are decoded in full;
// every other frame reaches onEvent with only Seq and Kind set, read
// from the {"seq":N,"kind":"K" prefix EventDoc's field order produces
// (a frame without that prefix is decoded in full). A truncated or
// dropped stream reconnects with Last-Event-ID so the worker replays
// only the unseen suffix; after StreamResets consecutive stream
// failures it degrades to polling GET /runs/{id} until the run is
// terminal (liveness over event granularity).
func (c *Client) Tail(ctx context.Context, id string, onEvent func(serve.EventDoc)) (serve.StatusDoc, error) {
	next := 0 // next unseen log position
	for resets := 0; resets <= c.retry.StreamResets; resets++ {
		if resets > 0 {
			c.observeRetry(resets, errStreamReset)
			if !sleep(ctx, sim.RetryDelay(c.retry.Backoff, c.retry.MaxBackoff, resets, c.retry.Seed)) {
				return serve.StatusDoc{}, context.Cause(ctx)
			}
		}
		st, err := c.tailOnce(ctx, id, &next, onEvent)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return serve.StatusDoc{}, context.Cause(ctx)
		}
	}
	// The stream keeps dying; fall back to polling for the terminal
	// state. Events lost here are presentation-only — result identity
	// comes from the result document, not the stream.
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, nil
		}
		if !sleep(ctx, c.retry.PollEvery) {
			return st, context.Cause(ctx)
		}
	}
}

var errStreamReset = errors.New("dist: SSE stream ended before the terminal status frame")

// tailOnce reads one SSE connection from *next onward; see readEvents.
func (c *Client) tailOnce(ctx context.Context, id string, next *int, onEvent func(serve.EventDoc)) (serve.StatusDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/runs/"+id+"/events", nil)
	if err != nil {
		return serve.StatusDoc{}, err
	}
	if *next > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*next-1))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return serve.StatusDoc{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return serve.StatusDoc{}, &HTTPError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}

	return c.readEvents(resp.Body, next, onEvent)
}

// readEvents reads one SSE body from *next onward, advancing *next past
// every delivered event. It returns the terminal status, or an error if
// the body ends (or is truncated) first.
func (c *Client) readEvents(body io.Reader, next *int, onEvent func(serve.EventDoc)) (serve.StatusDoc, error) {
	sc := bufio.NewScanner(body)
	// Frames are a few hundred bytes; the buffer starts small and grows
	// only for a longer line.
	sc.Buffer(nil, 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		if name, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = string(name)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		switch event {
		case "event":
			if c.faults != nil && c.faults.Hit(faultinject.OpDistSSE) {
				// A firing rule truncates the stream mid-frame; the
				// frame is not delivered and the caller reconnects
				// from the last acknowledged position.
				return serve.StatusDoc{}, errStreamReset
			}
			e, err := decodeEvent(data)
			if err != nil {
				return serve.StatusDoc{}, err
			}
			if e.Seq >= *next {
				onEvent(e)
				*next = e.Seq + 1
			}
		case "status":
			var st serve.StatusDoc
			if err := json.Unmarshal(data, &st); err != nil {
				return serve.StatusDoc{}, fmt.Errorf("dist: decoding SSE status: %w", err)
			}
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return serve.StatusDoc{}, err
	}
	return serve.StatusDoc{}, errStreamReset
}

// decodeEvent reads one event frame's data. A tick is decoded in full;
// any other frame that begins with the EventDoc prefix comes back with
// only Seq and Kind set, which is all the coordinator reads of it.
func decodeEvent(data []byte) (serve.EventDoc, error) {
	if seq, kind, ok := eventPrefix(data); ok && kind != "tick" {
		return serve.EventDoc{Seq: seq, Kind: kind}, nil
	}
	var e serve.EventDoc
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("dist: decoding SSE event: %w", err)
	}
	return e, nil
}

// eventPrefix parses the {"seq":N,"kind":"K" prefix that json.Marshal
// gives every EventDoc, followed by ',' or '}'. It accepts only what
// json.Unmarshal would read identically: N a canonical integer of at
// most 18 digits, K lower-case letters and hyphens (every event kind's
// spelling). Anything else reports ok=false.
func eventPrefix(data []byte) (seq int, kind string, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"seq":`))
	if !ok {
		return 0, "", false
	}
	n := 0
	for n < len(rest) && n <= 18 && '0' <= rest[n] && rest[n] <= '9' {
		seq = seq*10 + int(rest[n]-'0')
		n++
	}
	if n == 0 || n > 18 || (n > 1 && rest[0] == '0') {
		return 0, "", false
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(`,"kind":"`)); !ok {
		return 0, "", false
	}
	end := 0
	for end < len(rest) && ('a' <= rest[end] && rest[end] <= 'z' || rest[end] == '-') {
		end++
	}
	if end+1 >= len(rest) || rest[end] != '"' || (rest[end+1] != ',' && rest[end+1] != '}') {
		return 0, "", false
	}
	return seq, string(rest[:end]), true
}

// observeRetry reports one transient transport failure about to be
// retried.
func (c *Client) observeRetry(attempt int, err error) {
	if c.events != nil {
		c.events(obs.Event{Kind: obs.DistRetry, Worker: c.worker, Attempt: attempt, Err: err})
	}
}
