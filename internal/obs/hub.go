package obs

import "sync"

// Hub is a replayable fan-out of one run's event stream: an Observer
// that appends every event to a log and wakes any number of
// subscribers. A subscriber that arrives late replays the stored log
// from the beginning and then tails the live stream, so every
// subscriber sees the identical event sequence regardless of when it
// attached — the property the serving layer needs to let N deduplicated
// submissions share one execution.
//
// The emitting run never blocks on subscribers: Observe only appends
// under the lock and closes a broadcast channel, so a stalled or
// disconnected consumer cannot slow the simulation down. Consumers pull
// at their own pace through a Subscription cursor.
type Hub struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{} // closed and replaced on every append; closed for good on Close
	closed bool
	subs   int
}

// closedChan is returned by Subscription.Wait when events are already
// pending, so callers never block on a stale broadcast channel.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewHub returns an empty, open hub.
func NewHub() *Hub {
	return &Hub{wake: make(chan struct{})}
}

// Observe appends one event and wakes all waiting subscribers. It is
// the run's Observer; safe for concurrent use. Events observed after
// Close are dropped.
func (h *Hub) Observe(e Event) {
	h.mu.Lock()
	if !h.closed {
		h.events = append(h.events, e)
		close(h.wake)
		h.wake = make(chan struct{})
	}
	h.mu.Unlock()
}

// Close marks the stream complete: subscribers drain the remaining log
// and then see the end of the stream. Closing an already-closed hub is
// a no-op.
func (h *Hub) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.wake) // stays closed: every future Wait returns instantly
	}
	h.mu.Unlock()
}

// Len returns how many events the hub has logged.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// Subscribers returns how many subscriptions are currently attached.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.subs
}

// Snapshot copies the logged events so far.
func (h *Hub) Snapshot() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Event, len(h.events))
	copy(out, h.events)
	return out
}

// SubscribeAt attaches a subscriber whose cursor starts at log position
// pos: 0 replays the whole history first, a later pos is the resume
// point of a consumer that already replayed the prefix (an SSE
// reconnect carrying Last-Event-ID). pos is clamped to the current log
// bounds, so a stale or overshooting resume point degrades to a valid
// cursor instead of skipping unseen events. Cancel the subscription
// when done so the hub's subscriber count stays accurate.
func (h *Hub) SubscribeAt(pos int) *Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs++
	if pos < 0 {
		pos = 0
	}
	if pos > len(h.events) {
		pos = len(h.events)
	}
	return &Subscription{hub: h, cursor: pos}
}

// Subscription is one subscriber's cursor into a Hub's event log. It is
// pull-based: Next never blocks, and Wait hands back a channel to
// select on alongside the consumer's own deadlines and disconnects.
// A Subscription is owned by one consumer goroutine.
type Subscription struct {
	hub       *Hub
	cursor    int
	cancelled bool
}

// Next returns the next unseen event (ok=true). With the cursor at the
// end of the log it returns ok=false, and more tells the consumer
// whether the stream may still grow (wait on Wait()) or is complete and
// fully drained.
func (s *Subscription) Next() (e Event, ok, more bool) {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.cursor < len(h.events) {
		e = h.events[s.cursor]
		s.cursor++
		return e, true, true
	}
	return Event{}, false, !h.closed
}

// Wait returns a channel that is closed once an unseen event is pending
// or the hub closes. If either is already true the returned channel is
// pre-closed, so a Next/Wait loop cannot miss a wakeup.
func (s *Subscription) Wait() <-chan struct{} {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.cursor < len(h.events) || h.closed {
		return closedChan
	}
	return h.wake
}

// Cursor returns the subscription's current log position: the index of
// the next event Next would deliver. Consumers that label events by log
// position (SSE ids) read it instead of keeping a parallel counter.
func (s *Subscription) Cursor() int {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.cursor
}

// Cancel detaches the subscription. It is idempotent; a cancelled
// subscription's Next keeps working (the log is immutable), but the hub
// no longer counts it.
func (s *Subscription) Cancel() {
	if s.cancelled {
		return
	}
	s.cancelled = true
	s.hub.mu.Lock()
	s.hub.subs--
	s.hub.mu.Unlock()
}
