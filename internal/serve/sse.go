package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// handleEvents is GET /runs/{id}/events: the run's event log as
// Server-Sent Events. A subscriber replays the stored log from the
// beginning, then tails live events; when the run ends it receives one
// terminal "status" event carrying the final StatusDoc and the stream
// closes. Disconnecting mid-stream frees the subscription without
// touching the job — the hub never blocks the emitter on a consumer.
//
// Every event frame carries its log position as the SSE `id:` field. A
// reconnecting subscriber that presents it back as Last-Event-ID (the
// SSE-standard resume header) skips the already-replayed prefix instead
// of re-downloading the whole log; the resume point is clamped to the
// log bounds, so a stale id degrades to a full replay of the unseen
// suffix, never a gap.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		// The transport cannot stream (no flusher); nothing to serve.
		return
	}

	from := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n + 1
		}
	}
	sub := run.Hub().SubscribeAt(from)
	defer sub.Cancel()
	// Keep-alive comments let proxies and clients distinguish a quiet
	// run from a dead connection.
	beat := time.NewTicker(s.beat) //ghrplint:ignore detwallclock SSE keep-alive pacing is a transport concern; no simulation result depends on it
	defer beat.Stop()

	// Frames are encoded into one reused buffer and handed to the
	// response writer as they are drained; the stream is flushed once
	// per drained batch, so replaying a finished run's log costs one
	// write, not one per event.
	fw := newFrameWriter(w)
	for {
		seq := sub.Cursor()
		e, ok, more := sub.Next()
		if ok {
			if err := fw.frame(seq, "event", eventDoc(seq, e)); err != nil {
				return
			}
			continue
		}
		if !more {
			// Stream complete: the hub closes only after the run's
			// terminal state is readable, so this snapshot is final.
			fw.frame(-1, "status", run.status())
			rc.Flush()
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub.Wait():
		case <-beat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			rc.Flush()
		}
	}
}

// frameWriter writes SSE frames through one reused buffer: an optional
// `id:` line (id >= 0), the `event: <name>` line and a JSON data line.
// json.Encoder emits json.Marshal's bytes plus the newline that ends
// the data line, so the frames on the wire are the ones a per-frame
// json.Marshal would produce.
type frameWriter struct {
	w   io.Writer
	buf bytes.Buffer
	enc *json.Encoder
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: w}
	fw.enc = json.NewEncoder(&fw.buf)
	return fw
}

// frame writes one frame to the underlying writer without flushing it.
func (fw *frameWriter) frame(id int, event string, v any) error {
	fw.buf.Reset()
	if id >= 0 {
		fw.buf.WriteString("id: ")
		fw.buf.Write(strconv.AppendInt(fw.buf.AvailableBuffer(), int64(id), 10))
		fw.buf.WriteByte('\n')
	}
	fw.buf.WriteString("event: ")
	fw.buf.WriteString(event)
	fw.buf.WriteString("\ndata: ")
	if err := fw.enc.Encode(v); err != nil {
		return err
	}
	fw.buf.WriteByte('\n')
	_, err := fw.w.Write(fw.buf.Bytes())
	return err
}
