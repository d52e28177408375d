package store

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"
)

// permanentError marks failures that retrying cannot fix (protocol or
// schema mismatches); transient network failures retry, these do not.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

func isTransient(err error) bool {
	var pe permanentError
	if errors.As(err, &pe) {
		return false
	}
	// Context expiry is handled by the caller; everything else (dial
	// refused, reset, EOF mid-frame, deadline-expired read) is a transient
	// network condition worth one more try.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// lookupRetry runs the hedged attempt under the bounded-retry loop:
// transient failures back off (jittered exponential, capped) and retry;
// permanent failures and context expiry return immediately.
func (c *Client) lookupRetry(ctx context.Context, keys []int64) (rows [][]float64, hedgeStart time.Time, err error) {
	backoff := c.cfg.BackoffBase
	var lastErr error
	for try := 0; try <= c.cfg.Retries; try++ {
		if try > 0 {
			c.retries.Add(1)
			// Full-jitter backoff: uniform in (0, backoff], then double.
			d := time.Duration(rand.Int64N(int64(backoff))) + 1
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, hedgeStart, ctx.Err()
			case <-t.C:
			}
			if backoff *= 2; backoff > c.cfg.BackoffMax {
				backoff = c.cfg.BackoffMax
			}
		}
		rows, hs, err := c.lookupHedged(ctx, keys)
		if !hs.IsZero() {
			hedgeStart = hs
		}
		if err == nil {
			return rows, hedgeStart, nil
		}
		lastErr = err
		if ctx.Err() != nil || !isTransient(err) {
			return nil, hedgeStart, err
		}
	}
	return nil, hedgeStart, lastErr
}

// lookupHedged runs one attempt, racing a speculative second attempt
// launched after the hedge delay when the first is slow. First response
// wins; the loser's context is canceled, which expires its connection
// deadline and unblocks its I/O. hedgeStart is non-zero iff a hedge was
// launched, whichever attempt won.
func (c *Client) lookupHedged(ctx context.Context, keys []int64) ([][]float64, time.Time, error) {
	if !c.cfg.Hedge {
		rows, err := c.attempt(ctx, keys)
		return rows, time.Time{}, err
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		rows  [][]float64
		err   error
		hedge bool
	}
	ch := make(chan result, 2) // buffered: the losing attempt must not block
	go func() {
		rows, err := c.attempt(actx, keys)
		ch <- result{rows, err, false}
	}()
	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	var hedgeStart time.Time
	launched := false
	outstanding := 1
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.hedge {
					c.hedgesWon.Add(1)
				}
				return r.rows, hedgeStart, nil
			}
			outstanding--
			if !launched || outstanding == 0 {
				// Primary failed before the hedge fired, or both attempts
				// failed: report to the retry loop.
				return nil, hedgeStart, r.err
			}
		case <-timer.C:
			if !launched {
				launched = true
				hedgeStart = time.Now()
				c.hedgesIssued.Add(1)
				outstanding++
				go func() {
					rows, err := c.attempt(actx, keys)
					ch <- result{rows, err, true}
				}()
			}
		case <-ctx.Done():
			return nil, hedgeStart, ctx.Err()
		}
	}
}

// hedgeDelay picks the speculative-attempt trigger: the configured fixed
// delay, or adaptively the p90 of recent attempt latencies clamped to
// [200µs, RequestTimeout/2].
func (c *Client) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	if c.lat.Total() < minAdaptiveObservations {
		return defaultHedgeDelay
	}
	d := c.lat.Quantile(0.9)
	if lo := 200 * time.Microsecond; d < lo {
		d = lo
	}
	if hi := c.cfg.RequestTimeout / 2; d > hi {
		d = hi
	}
	return d
}
