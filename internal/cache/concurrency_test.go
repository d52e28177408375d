package cache

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedConcurrentGetPutEvict drives 8 goroutines of mixed Get/Put
// traffic against a deliberately small cache so CLOCK eviction and
// backward-shift deletion run constantly under contention. Values are
// self-verifying, so any cross-shard or intra-shard corruption shows up as a
// wrong vector. Run with -race for the full data-race check (the CI race job
// does).
func TestShardedConcurrentGetPutEvict(t *testing.T) {
	c := NewSharded(128, 8)
	const (
		workers = 8
		iters   = 4000
		keys    = 1024
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			kb := make([]byte, 0, 16)
			dst := make([]float64, 2)
			for i := 0; i < iters; i++ {
				k := int64(rng.Intn(keys))
				kb = append(kb[:0], intKey(k)...)
				h := Hash64(kb)
				if c.CopyInto(h, kb, dst) {
					if dst[0] != float64(k) || dst[1] != float64(k)*2 {
						errs <- fmt.Errorf("worker %d: key %d read %v", w, k, dst)
						return
					}
				} else {
					c.Put(h, kb, keyVal(k))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bound := c.Capacity(); c.Len() > bound {
		t.Errorf("Len %d exceeds capacity %d after concurrent churn", c.Len(), bound)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("expected hits and evictions under churn, got %+v", st)
	}
}

// TestCoalesceSingleComputation holds one leader's computation open until
// every other goroutine has reached Coalesce for the same key: exactly one
// computation may run, every waiter must receive its vector and find it
// cached.
func TestCoalesceSingleComputation(t *testing.T) {
	c := NewSharded(64, 4)
	k := intKey(99)
	h := Hash64(k)
	const waiters = 15
	var computes atomic.Int64
	leaderIn := make(chan struct{}) // closed once the leader's compute started
	release := make(chan struct{})  // closed to let the leader finish
	var arrived atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader, err := c.Coalesce(context.Background(), h, k, make([]float64, 2), func() ([]float64, error) {
			computes.Add(1)
			close(leaderIn)
			<-release
			return keyVal(99), nil
		})
		if !leader || err != nil {
			t.Errorf("first caller: leader=%v err=%v, want leader with nil error", leader, err)
		}
	}()
	<-leaderIn // the flight is registered; everyone below must join it

	errs := make(chan error, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Add(1)
			dst := make([]float64, 2)
			leader, err := c.Coalesce(context.Background(), h, k, dst, func() ([]float64, error) {
				computes.Add(1)
				return keyVal(99), nil
			})
			if err != nil {
				errs <- err
				return
			}
			if leader {
				errs <- fmt.Errorf("waiter became leader while a flight was open")
				return
			}
			if dst[0] != 99 || dst[1] != 198 {
				errs <- fmt.Errorf("waiter received %v, want the leader's vector", dst)
				return
			}
			if !c.CopyInto(h, k, dst) {
				errs <- fmt.Errorf("waiter found no cached value after leader finished")
			}
		}()
	}
	// Wait for every waiter to have at least called into Coalesce, then let
	// the leader complete. (arrived is incremented immediately before the
	// call; a brief yield lets the stragglers block on the flight channel.)
	for arrived.Load() != waiters {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times for one key, want 1", n)
	}
	if st := c.Stats(); st.Coalesced != waiters {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, waiters)
	}
}

// TestCoalesceErrorPropagates: waiters see the leader's error and nothing is
// cached, so the next request retries the computation.
func TestCoalesceErrorPropagates(t *testing.T) {
	c := NewSharded(64, 2)
	k := intKey(5)
	wantErr := fmt.Errorf("backend down")
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	var leaders, witnessed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			leader, err := c.Coalesce(context.Background(), Hash64(k), k, make([]float64, 2), func() ([]float64, error) { return nil, wantErr })
			if leader {
				leaders.Add(1)
			}
			if err == wantErr { //nolint:errorlint // exact propagation intended
				witnessed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	// Concurrent flights coalesce into >= 1 leader (late arrivals after a
	// flight finishes start a fresh one); every caller saw the error.
	if leaders.Load() < 1 || witnessed.Load() != workers {
		t.Errorf("leaders = %d, error witnesses = %d/%d", leaders.Load(), witnessed.Load(), workers)
	}
	if c.Contains(Hash64(k), k) {
		t.Error("failed computation left a cache entry")
	}
}

// TestCoalesceWaiterHonorsContext: a waiter whose own request context dies
// must return promptly with the context error instead of blocking on a slow
// leader; the leader keeps computing for everyone else.
func TestCoalesceWaiterHonorsContext(t *testing.T) {
	c := NewSharded(64, 2)
	k := intKey(7)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Coalesce(context.Background(), Hash64(k), k, make([]float64, 2), func() ([]float64, error) {
			close(leaderIn)
			<-release
			return keyVal(7), nil
		})
		done <- err
	}()
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	leader, err := c.Coalesce(ctx, Hash64(k), k, make([]float64, 2), func() ([]float64, error) {
		t.Error("waiter must not compute")
		return nil, nil
	})
	if leader {
		t.Error("second caller became leader while a flight was open")
	}
	if err != context.DeadlineExceeded {
		t.Errorf("waiter error = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("waiter blocked %v past its deadline", waited)
	}
	close(release)
	if err := <-done; err != nil {
		t.Errorf("leader error: %v", err)
	}
	if !c.Contains(Hash64(k), k) {
		t.Error("leader's result was not published despite waiter abandonment")
	}
}

// TestCoalesceDistinctKeysDoNotSerialize: computations for different keys
// must proceed independently (coalescing is per key, not global).
func TestCoalesceDistinctKeysDoNotSerialize(t *testing.T) {
	c := NewSharded(64, 4)
	const workers = 8
	gate := make(chan struct{})
	var inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := intKey(int64(w))
			_, err := c.Coalesce(context.Background(), Hash64(k), k, make([]float64, 2), func() ([]float64, error) {
				n := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				<-gate // hold every flight open until all have started
				inFlight.Add(-1)
				return keyVal(int64(w)), nil
			})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Wait until every distinct-key flight is simultaneously in progress; if
	// coalescing serialized them, this would deadlock (caught by test timeout).
	for inFlight.Load() != workers {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if maxInFlight.Load() != workers {
		t.Errorf("max concurrent flights = %d, want %d", maxInFlight.Load(), workers)
	}
}
