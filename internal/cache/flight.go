package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/trace"
)

// Miss coalescing (singleflight): under skewed traffic, many concurrent
// requests miss on the same hot key at once — without coalescing each one
// recomputes the feature vector (and, for lookup features, each one issues
// the remote request). Coalesce lets exactly one caller compute while the
// rest wait and then take the leader's vector.

// flightCall is one in-flight computation.
type flightCall struct {
	done    chan struct{}
	err     error
	waiters int       // callers blocked on done; guarded by flightGroup.mu
	val     []float64 // the leader's vector, kept only when waiters > 0
}

// flightGroup tracks in-flight computations by exact key bytes.
type flightGroup struct {
	mu        sync.Mutex
	calls     map[string]*flightCall
	coalesced atomic.Int64
}

// Coalesce computes (hash, key)'s vector at most once across concurrent
// callers. The first caller (the leader) runs compute, publishes the vector
// it returns with Put, and returns leader=true with compute's error. Every
// concurrent caller blocks until the leader finishes or its own ctx dies,
// whichever comes first: a waiter's per-request deadline is honored even
// when the leader's computation is slow. On the leader's completion a waiter
// returns leader=false with the leader's error and, on success, the leader's
// vector copied into dst — whether or not admission kept it in the cache, so
// a declined Put never costs a waiter a second computation. A waiter is not
// counted as a hit: its lookup already missed. This path allocates: it only
// runs on misses, which compute features anyway.
func (c *Sharded) Coalesce(ctx context.Context, hash uint64, key []byte, dst []float64, compute func() ([]float64, error)) (leader bool, err error) {
	g := &c.flight
	ks := string(key)
	g.mu.Lock()
	if call, ok := g.calls[ks]; ok {
		call.waiters++
		g.mu.Unlock()
		// Waiters record how long they blocked behind the leader; Record is
		// a no-op on unsampled (nil-trace) requests.
		tw := trace.FromContext(ctx)
		t0 := time.Time{}
		if tw != nil {
			t0 = time.Now()
		}
		select {
		case <-call.done:
			g.coalesced.Add(1)
			tw.Record(trace.StageCacheCoalesce, t0)
			if call.err == nil {
				copy(dst, call.val)
			}
			return false, call.err
		case <-ctx.Done():
			// The waiter's own request died; the leader keeps computing for
			// everyone else.
			return false, ctx.Err()
		}
	}
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	call := &flightCall{done: make(chan struct{})}
	g.calls[ks] = call
	g.mu.Unlock()

	val, err := compute()
	if err == nil {
		c.Put(hash, key, val)
	}

	g.mu.Lock()
	delete(g.calls, ks)
	if err == nil && call.waiters > 0 {
		call.val = append([]float64(nil), val...)
	}
	call.err = err
	g.mu.Unlock()
	close(call.done)
	return true, err
}
