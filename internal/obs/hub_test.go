package obs

import (
	"sync"
	"testing"
)

func TestHubReplayThenTail(t *testing.T) {
	h := NewHub()
	h.Observe(Event{Kind: RunStart, Workloads: 2})
	h.Observe(Event{Kind: WorkloadStart, Workload: "SM-001"})

	// A late subscriber replays the stored log first.
	sub := h.SubscribeAt(0)
	defer sub.Cancel()
	e, ok, _ := sub.Next()
	if !ok || e.Kind != RunStart {
		t.Fatalf("first replayed event = %v ok=%v, want RunStart", e.Kind, ok)
	}
	e, ok, _ = sub.Next()
	if !ok || e.Kind != WorkloadStart {
		t.Fatalf("second replayed event = %v ok=%v, want WorkloadStart", e.Kind, ok)
	}
	if _, ok, more := sub.Next(); ok || !more {
		t.Fatalf("drained open hub: ok=%v more=%v, want false true", ok, more)
	}

	// Then tails live events.
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Observe(Event{Kind: RunDone})
		h.Close()
	}()
	<-sub.Wait()
	<-done
	e, ok, _ = sub.Next()
	if !ok || e.Kind != RunDone {
		t.Fatalf("tailed event = %v ok=%v, want RunDone", e.Kind, ok)
	}
	if _, ok, more := sub.Next(); ok || more {
		t.Fatalf("closed drained hub: ok=%v more=%v, want false false", ok, more)
	}
}

func TestHubWaitPreClosedWhenPending(t *testing.T) {
	h := NewHub()
	sub := h.SubscribeAt(0)
	defer sub.Cancel()
	h.Observe(Event{Kind: RunStart})
	select {
	case <-sub.Wait():
	default:
		t.Fatal("Wait() not pre-closed with a pending event")
	}
	h2 := NewHub()
	sub2 := h2.SubscribeAt(0)
	defer sub2.Cancel()
	h2.Close()
	select {
	case <-sub2.Wait():
	default:
		t.Fatal("Wait() not pre-closed on a closed hub")
	}
}

func TestHubObserveAfterCloseDropped(t *testing.T) {
	h := NewHub()
	h.Close()
	h.Observe(Event{Kind: RunStart})
	if h.Len() != 0 {
		t.Fatalf("Len = %d after post-close Observe, want 0", h.Len())
	}
	sub := h.SubscribeAt(0)
	defer sub.Cancel()
	if _, ok, more := sub.Next(); ok || more {
		t.Fatalf("Next on a closed empty hub: ok=%v more=%v, want false false", ok, more)
	}
}

func TestHubSubscriberCount(t *testing.T) {
	h := NewHub()
	a, b := h.SubscribeAt(0), h.SubscribeAt(0)
	if n := h.Subscribers(); n != 2 {
		t.Fatalf("Subscribers = %d, want 2", n)
	}
	a.Cancel()
	a.Cancel() // idempotent
	if n := h.Subscribers(); n != 1 {
		t.Fatalf("Subscribers = %d after cancel, want 1", n)
	}
	b.Cancel()
	if n := h.Subscribers(); n != 0 {
		t.Fatalf("Subscribers = %d, want 0", n)
	}
}

func TestHubSubscribeAt(t *testing.T) {
	h := NewHub()
	for i := 0; i < 5; i++ {
		h.Observe(Event{Kind: Tick, WorkloadIndex: i})
	}
	// A resuming subscriber skips the already-replayed prefix.
	sub := h.SubscribeAt(3)
	defer sub.Cancel()
	e, ok, _ := sub.Next()
	if !ok || e.WorkloadIndex != 3 {
		t.Fatalf("first resumed event index = %d ok=%v, want 3", e.WorkloadIndex, ok)
	}
	// Out-of-range resume points clamp instead of skipping the unseen.
	past := h.SubscribeAt(99)
	defer past.Cancel()
	if _, ok, more := past.Next(); ok || !more {
		t.Fatalf("overshooting cursor: ok=%v more=%v, want false true", ok, more)
	}
	h.Observe(Event{Kind: Tick, WorkloadIndex: 5})
	if e, ok, _ := past.Next(); !ok || e.WorkloadIndex != 5 {
		t.Fatalf("clamped cursor missed the next live event: %v ok=%v", e.WorkloadIndex, ok)
	}
	neg := h.SubscribeAt(-7)
	defer neg.Cancel()
	if e, ok, _ := neg.Next(); !ok || e.WorkloadIndex != 0 {
		t.Fatalf("negative cursor: index %d ok=%v, want 0", e.WorkloadIndex, ok)
	}
}

// TestHubCancelBetweenWaitAndNext pins the coordinator's reconnect-heavy
// usage: a subscriber that obtained a Wait channel, then cancels instead
// of calling Next, while the emitter concurrently appends and closes the
// log. Neither side may block or leak — the emitter never waits on
// consumers, and a cancelled subscription's cursor stays usable.
func TestHubCancelBetweenWaitAndNext(t *testing.T) {
	for i := 0; i < 200; i++ {
		h := NewHub()
		sub := h.SubscribeAt(0)
		ch := sub.Wait()

		done := make(chan struct{})
		go func() {
			defer close(done)
			h.Observe(Event{Kind: RunStart})
			h.Observe(Event{Kind: RunDone})
			h.Close()
		}()

		// Cancel between Wait and Next, racing the emitter's close.
		sub.Cancel()
		<-done
		// The wake channel the subscriber held must have been released
		// by the append (or the close) — reading it cannot block.
		<-ch
		if n := h.Subscribers(); n != 0 {
			t.Fatalf("Subscribers = %d after cancel, want 0", n)
		}
		// A cancelled subscription still drains the immutable log.
		seen := 0
		for {
			_, ok, more := sub.Next()
			if ok {
				seen++
				continue
			}
			if more {
				t.Fatal("closed hub still reports more events pending")
			}
			break
		}
		if seen != 2 {
			t.Fatalf("cancelled subscription drained %d events, want 2", seen)
		}
	}
}

// TestHubConcurrent drives one emitter against several tailing
// subscribers under -race: every subscriber must see the full sequence
// in order, and the emitter must never block on a slow consumer.
func TestHubConcurrent(t *testing.T) {
	const events = 500
	h := NewHub()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		sub := h.SubscribeAt(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Cancel()
			seen := 0
			for {
				e, ok, more := sub.Next()
				if ok {
					if int(e.WorkloadIndex) != seen {
						t.Errorf("event %d out of order: index %d", seen, e.WorkloadIndex)
						return
					}
					seen++
					continue
				}
				if !more {
					break
				}
				<-sub.Wait()
			}
			if seen != events {
				t.Errorf("subscriber saw %d events, want %d", seen, events)
			}
		}()
	}
	for i := 0; i < events; i++ {
		h.Observe(Event{Kind: Tick, WorkloadIndex: i})
	}
	h.Close()
	wg.Wait()
}
