package md

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"orca/internal/gpos"
)

// RetryPolicy bounds retry-with-backoff for transient provider lookups. The
// zero policy disables retry (one attempt per lookup), so hosts that never
// opt in see the historical single-shot behavior. The serving tier
// (internal/serve) and cmd/orca both wire a policy through
// core.Config.MDRetry, so the one-shot CLI and the server share this one
// lifecycle implementation.
//
// Only errors classified transient by IsTransient are retried; terminal
// errors (missing objects, cancelled request contexts, type mismatches)
// surface immediately. Every backoff sleep is budgeted by the session's base
// context: a request deadline that would expire during the backoff stops the
// retry loop with the last transient error instead of sleeping past it, and
// cancelling the context interrupts the sleep.
type RetryPolicy struct {
	// MaxAttempts is the total number of lookup attempts (first try
	// included). Values below 2 disable retry.
	MaxAttempts int
	// InitialBackoff is the pre-jitter backoff before the first retry; it
	// doubles on each subsequent retry, up to maxBackoff. Zero defaults to
	// 5ms when retry is enabled.
	InitialBackoff time.Duration
}

// maxBackoff caps the exponential growth of the pre-jitter backoff.
const maxBackoff = 500 * time.Millisecond

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// attempts returns the effective attempt budget (always at least 1).
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff computes the jittered sleep before retry number `retry` (1-based):
// an exponentially doubled base capped at maxBackoff, then equal-jittered
// into [base/2, base] so synchronized clients spread out instead of
// retrying in lockstep.
func (p RetryPolicy) backoff(retry int) time.Duration {
	base := p.InitialBackoff
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	for i := 1; i < retry && base < maxBackoff; i++ {
		base *= 2
	}
	if base > maxBackoff {
		base = maxBackoff
	}
	half := base / 2
	if half <= 0 {
		return base
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// TransientError marks a lookup failure as retryable. The retry loop in
// timedLookup unwraps it, so callers that do not retry still see the
// underlying error through errors.Is/As.
type TransientError struct{ Err error }

// Error implements the error interface.
func (e *TransientError) Error() string { return fmt.Sprintf("md: transient: %v", e.Err) }

// Unwrap exposes the underlying failure.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. Backend providers whose failures are
// worth retrying (connection resets, leader elections, catalog-server
// restarts) wrap them with this before returning; nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient classifies a lookup failure as retryable or terminal — the
// classification hook consulted by the retry loop. Retryable are:
//
//   - errors explicitly marked with Transient,
//   - errors implementing `TransientLookup() bool` (a provider-owned
//     classification that avoids importing this package's wrapper),
//   - per-attempt lookup timeouts (CodeLookupTimeout): a slow provider may
//     well answer the next, separately-deadlined attempt.
//
// Everything else is terminal — notably ErrNotFound (the object does not
// exist; retrying cannot create it) and CodeLookupCancelled (the session's
// base context is dead, so further attempts are pointless).
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var tl interface{ TransientLookup() bool }
	if errors.As(err, &tl) {
		return tl.TransientLookup()
	}
	if ex := gpos.AsException(err); ex != nil && ex.Comp == gpos.CompMD && ex.Code == CodeLookupTimeout {
		return true
	}
	return false
}

// backoffWait sleeps for d under the session's base context. It returns
// false without sleeping when the context's deadline would expire before the
// backoff completes (the retry budget is exhausted) and false when the
// context is cancelled mid-sleep; true means the retry may proceed.
func backoffWait(base context.Context, d time.Duration) bool {
	if dl, ok := base.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-base.Done():
		return false
	}
}
