package sim

import (
	"testing"
	"time"
)

// The cap leaves the default retry budget's delays as plain doubling
// gives them, and bounds a long retry chain, where an uncapped shift
// overflows time.Duration near attempt 38.
func TestRetryDelayCapped(t *testing.T) {
	for attempt := 1; attempt <= DefaultMaxRetries; attempt++ {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			d := DefaultRetryBackoff << (attempt - 1)
			want := d + time.Duration(SplitMix64(seed^uint64(attempt))%(uint64(d/2)+1))
			if got := RetryDelay(DefaultRetryBackoff, MaxRetryBackoff, attempt, seed); got != want {
				t.Errorf("attempt %d seed %#x: delay %v, want %v", attempt, seed, got, want)
			}
		}
	}
	for _, attempt := range []int{40, 64, 1000} {
		if got := RetryDelay(DefaultRetryBackoff, MaxRetryBackoff, attempt, 7); got < 0 || got > MaxRetryBackoff*3/2 {
			t.Errorf("attempt %d: delay %v, want within [0, %v]", attempt, got, MaxRetryBackoff*3/2)
		}
	}
}
