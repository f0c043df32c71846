package obs

import (
	"runtime"
	"testing"
	"time"
)

// TestHubSubscriberNoLeak is the goroutine-leak regression pin from the
// PR-10 concurrency sweep: a subscriber parked in Wait must be released
// when the hub closes, so a long-lived daemon never accumulates parked
// reader goroutines. The Hub wakes waiters with its close-and-replace
// wake channel; this test fails if that path ever regresses into a
// missed wakeup.
func TestHubSubscriberNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	h := NewHub()
	const readers = 8
	const events = 16
	done := make(chan int, readers)
	for i := 0; i < readers; i++ {
		sub := h.SubscribeAt(0)
		go func() {
			n := 0
			for {
				_, ok, more := sub.Next()
				if ok {
					n++
					continue
				}
				if !more {
					done <- n
					return
				}
				<-sub.Wait()
			}
		}()
	}

	for i := 0; i < events; i++ {
		h.Observe(Event{Kind: WorkloadDone, WorkloadIndex: i})
	}
	h.Close()

	deadline := time.After(5 * time.Second)
	for i := 0; i < readers; i++ {
		select {
		case n := <-done:
			if n != events {
				t.Errorf("reader %d saw %d events, want %d", i, n, events)
			}
		case <-deadline:
			t.Fatalf("reader %d still parked after Close: Wait wakeup leaked", i)
		}
	}

	// Give exited goroutines a beat to be reaped, then compare counts.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after close; subscriber goroutines leaked",
		before, runtime.NumGoroutine())
}
