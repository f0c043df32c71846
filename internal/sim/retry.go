package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrTaskTimeout is the cancellation cause when one (workload, policy)
// task exceeds Options.TaskTimeout.
var ErrTaskTimeout = errors.New("sim: task deadline exceeded")

// ErrTaskStalled is the cancellation cause when the stall watchdog sees
// no replay progress within Options.StallTimeout.
var ErrTaskStalled = errors.New("sim: task stalled: no progress within watchdog window")

// RetryableError wraps an error the scheduler should treat as
// transient: the failed task attempt is repeated (with backoff) up to
// Options.MaxRetries times before the error is surfaced.
type RetryableError struct {
	Err error
}

// Error describes the wrapped transient failure.
func (e *RetryableError) Error() string { return "transient: " + e.Err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *RetryableError) Unwrap() error { return e.Err }

// PanicError is a recovered task panic, carrying the panic value and
// the goroutine stack captured at recovery. Panics are never retried:
// a panicking replay left no evidence it would behave on a second
// attempt.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value and its stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// IsRetryable classifies an error for the scheduler's retry loop:
// explicit RetryableError wrappers and anything exposing a
// Transient() bool method (the fault injector's errors, without this
// package importing it) are retryable; panics, deadlines and
// everything else are not.
func IsRetryable(err error) bool {
	var re *RetryableError
	if errors.As(err, &re) {
		return true
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// MaxRetryBackoff caps the doubling of the scheduler's retry delay; a
// larger Options.RetryBackoff is used as given.
const MaxRetryBackoff = 2 * time.Second

// RetryDelay computes the backoff before retry attempt (1-based):
// base<<(attempt-1) capped at max, plus deterministic jitter in
// [0, delay/2] derived from seed, so repeated runs of the same suite
// back off identically. It is the one backoff of the repo: the
// scheduler's task retries and the dist coordinator's HTTP retries.
func RetryDelay(base, max time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	delay := base
	for i := 1; i < attempt && delay < max; i++ {
		delay <<= 1
	}
	if delay > max {
		delay = max
	}
	half := uint64(delay / 2)
	return delay + time.Duration(SplitMix64(seed^uint64(attempt))%(half+1))
}

// SplitMix64 is the SplitMix64 mixer, the source of deterministic
// backoff jitter (math/rand would make run timing depend on global
// state) and of the dist coordinator's ring points.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
