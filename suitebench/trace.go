package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ghrpsim/internal/obs"
	"ghrpsim/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Times are nanoseconds since the
// tracer started; Parent 0 marks a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer holds a run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open records a span that close ends later.
func (t *tracer) open(trace, name string, parent int, start time.Time) int {
	return t.add(trace, name, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// finish computes self times and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	setSelfTimes(t.spans)
	return t.spans
}

// setSelfTimes fills each span's Self: its duration minus the part of
// its interval covered by the union of its children.
func setSelfTimes(spans []span) {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// layerTime aggregates every span of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layerTimes aggregates spans by name, in order of first appearance.
func layerTimes(spans []span) []layerTime {
	var out []layerTime
	at := map[string]int{}
	for _, s := range spans {
		i, ok := at[s.Name]
		if !ok {
			i = len(out)
			at[s.Name] = i
			out = append(out, layerTime{Name: s.Name})
		}
		out[i].Spans++
		out[i].TotalMS += float64(s.End-s.Start) / 1e6
		out[i].SelfMS += float64(s.Self) / 1e6
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passTrace observes one traced pass: the scheduler's workload tasks,
// the coordinator's shards and, on the loopback workload, every HTTP
// request a daemon serves. Its callbacks run concurrently.
type passTrace struct {
	tr        *tracer
	trace     string
	parent    int // the pass span
	shardSize int

	mu         sync.Mutex
	taskStart  map[int]time.Time
	taskMS     []float64 // workload task spans, however they were observed
	lastStart  time.Time // last task (or shard) start
	runDone    time.Time
	shardSpan  map[int]int
	shardStart map[int]time.Time
	shardMS    map[int]float64
	runShard   map[string]int // daemon run id -> shard, for runs this pass created
	statuses   []serve.StatusDoc
	submitMS   []float64
	resultKB   []float64
	requests   int
	non2xx     int
}

func newPassTrace(tr *tracer, trace string, parent, shardSize int) *passTrace {
	return &passTrace{tr: tr, trace: trace, parent: parent, shardSize: shardSize,
		taskStart: map[int]time.Time{}, shardSpan: map[int]int{},
		shardStart: map[int]time.Time{}, shardMS: map[int]float64{}, runShard: map[string]int{}}
}

// observeSim is the sim.Options.Observer of an in-process pass.
func (p *passTrace) observeSim(e obs.Event) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case obs.WorkloadStart:
		p.taskStart[e.WorkloadIndex] = now
		p.lastStart = now
	case obs.WorkloadDone:
		start := p.taskStart[e.WorkloadIndex]
		p.tr.add(p.trace, "sim.task", p.parent, start, now)
		p.taskMS = append(p.taskMS, ms(now.Sub(start)))
	case obs.RunDone:
		p.runDone = now
	}
}

// observeDist is the dist.Options.Observer of a loopback pass. A shard's
// span runs from its first dispatch to its merge.
func (p *passTrace) observeDist(e obs.Event) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case obs.ShardDispatch:
		if _, ok := p.shardSpan[e.Shard]; !ok {
			p.shardStart[e.Shard] = now
			p.shardSpan[e.Shard] = p.tr.open(p.trace, "dist.shard", p.parent, now)
		}
		p.lastStart = now
	case obs.ShardDone:
		if id, ok := p.shardSpan[e.Shard]; ok {
			p.tr.close(id, now)
			p.shardMS[e.Shard] = ms(now.Sub(p.shardStart[e.Shard]))
		}
	case obs.RunDone:
		p.runDone = now
	}
}

// serve handles one daemon request while recording it. Before a result
// is served, the run's status (queue and execution timestamps) and its
// event log (workload task durations) are read from the daemon, which
// still holds the run at that point.
func (p *passTrace) serve(srv *serve.Server, w http.ResponseWriter, r *http.Request) {
	kind, id := route(r)
	rw := &recordingWriter{ResponseWriter: w, status: http.StatusOK}
	if kind == "submit" {
		rw.tee = &bytes.Buffer{}
	}
	if kind == "result" {
		p.collectRun(srv, id)
	}
	start := time.Now()
	srv.ServeHTTP(rw, r)
	end := time.Now()

	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if rw.status/100 != 2 {
		p.non2xx++
	}
	shard, known := p.runShard[id]
	switch kind {
	case "submit":
		p.submitMS = append(p.submitMS, ms(end.Sub(start)))
		var sub serve.SubmitResponse
		if json.Unmarshal(rw.tee.Bytes(), &sub) == nil && sub.Created && sub.Status.Request.Suite != nil {
			shard, known = sub.Status.Request.Suite.Lo/p.shardSize, true
			p.runShard[sub.Status.ID] = shard
		}
	case "result":
		p.resultKB = append(p.resultKB, float64(rw.bytes)/1024)
	}
	parent := p.parent
	if s, ok := p.shardSpan[shard]; known && ok {
		parent = s
	}
	p.tr.add(p.trace, "serve."+kind, parent, start, end)
}

// collectRun records a run's status and task durations, once, for runs
// this pass created (a run joined by deduplication belongs to the pass
// that executed it).
func (p *passTrace) collectRun(srv *serve.Server, id string) {
	p.mu.Lock()
	_, mine := p.runShard[id]
	p.mu.Unlock()
	if !mine {
		return
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/runs/"+id, nil))
	var st serve.StatusDoc
	decoded := json.Unmarshal(rec.Body.Bytes(), &st) == nil
	var tasks []float64
	if run, ok := srv.Store().Get(id); ok {
		for _, e := range run.Hub().Snapshot() {
			if e.Kind == obs.WorkloadDone {
				tasks = append(tasks, ms(e.Elapsed))
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if decoded {
		p.statuses = append(p.statuses, st)
	}
	p.taskMS = append(p.taskMS, tasks...)
}

// route classifies a daemon request and extracts its run id.
func route(r *http.Request) (kind, id string) {
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && path == "/runs":
		return "submit", ""
	case strings.HasPrefix(path, "/runs/") && strings.HasSuffix(path, "/events"):
		return "events", strings.TrimSuffix(strings.TrimPrefix(path, "/runs/"), "/events")
	case strings.HasPrefix(path, "/runs/") && strings.HasSuffix(path, "/result"):
		return "result", strings.TrimSuffix(strings.TrimPrefix(path, "/runs/"), "/result")
	}
	return "other", ""
}

// recordingWriter captures a response's status and size, and its body
// when tee is set. Unwrap keeps SSE flushing working through it.
type recordingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	tee    *bytes.Buffer
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	if w.tee != nil {
		w.tee.Write(b[:n])
	}
	return n, err
}

func (w *recordingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
