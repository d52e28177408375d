package store_test

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/kvstore"
	"willump/internal/store"
)

// newTestStore starts a kvstore server holding rows of width dim and
// returns its address. The server is closed with the test.
func newTestStore(t *testing.T, dim int, latency time.Duration, rows map[int64][]float64) (*kvstore.Server, string) {
	t.Helper()
	srv := kvstore.NewServer(dim, latency)
	if rows != nil {
		if err := srv.Load(rows); err != nil {
			t.Fatalf("Load: %v", err)
		}
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dialTest(t *testing.T, cfg store.Config) *store.Client {
	t.Helper()
	c, err := store.Dial(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialProbesDimAndValidates(t *testing.T) {
	_, addr := newTestStore(t, 3, 0, nil)
	c := dialTest(t, store.Config{Addr: addr})
	if c.Dim() != 3 {
		t.Errorf("Dim() = %d, want 3 (probed from server)", c.Dim())
	}
	if err := c.CheckSchema(3); err != nil {
		t.Errorf("CheckSchema(3): %v", err)
	}
	if err := c.CheckSchema(7); err == nil {
		t.Error("CheckSchema(7) accepted a width mismatch")
	}
	// An explicit expectation mismatch is a dial-time error, so artifact
	// bindings fail fast with a descriptive message instead of on the first
	// prediction.
	if _, err := store.Dial(context.Background(), store.Config{Addr: addr, ExpectDim: 5}); err == nil {
		t.Error("Dial with ExpectDim 5 against a 3-wide server succeeded")
	} else if !strings.Contains(err.Error(), "3") || !strings.Contains(err.Error(), "5") {
		t.Errorf("dim mismatch error %q does not name both widths", err)
	}
}

// A server whose dim probe reports an absurd width is refused at Dial, with
// no width expectation configured: the width sizes every later read, so the
// first lookup (or the breaker's fallback) would otherwise allocate by it.
func TestDialRejectsHugeDim(t *testing.T) {
	for _, dim := range []uint32{0xFFFFFFFE, kvstore.MissingDim, 1 << 31, 1<<16 + 1} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var hdr [5]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil || hdr[0] != 'D' {
				return
			}
			conn.Write(binary.LittleEndian.AppendUint32(nil, dim))
			io.Copy(io.Discard, conn) // until the client hangs up
		}()
		c, err := store.Dial(context.Background(), store.Config{Addr: ln.Addr().String()})
		if err == nil {
			c.Close()
			t.Errorf("Dial accepted a server reporting %d-wide rows", dim)
		}
		ln.Close()
		<-done
	}
}

func TestLookupBatchRoundtrip(t *testing.T) {
	rows := map[int64][]float64{
		1: {1, 10},
		2: {2, 20},
		5: {5, 50},
	}
	_, addr := newTestStore(t, 2, 0, rows)
	c := dialTest(t, store.Config{Addr: addr})
	got, err := c.LookupBatchCtx(context.Background(), []int64{5, 999, 1})
	if err != nil {
		t.Fatalf("LookupBatchCtx: %v", err)
	}
	if len(got) != 3 || got[0][1] != 50 || got[1] != nil || got[2][0] != 1 {
		t.Errorf("rows = %v, want [[5 50] nil [1 10]]", got)
	}
	if n := c.Requests(); n != 1 {
		t.Errorf("Requests() = %d, want 1 (one pipelined round trip per batch)", n)
	}
	// The deprecated context-free entry point still works.
	got, err = c.LookupBatch([]int64{2})
	if err != nil || got[0][1] != 20 {
		t.Errorf("LookupBatch = %v, %v; want [[2 20]]", got, err)
	}
}

func TestLookupHonorsContextDeadline(t *testing.T) {
	srv, addr := newTestStore(t, 1, 0, map[int64][]float64{1: {1}})
	c := dialTest(t, store.Config{Addr: addr, Retries: -1, BreakerThreshold: -1})
	srv.SetLatencyFunc(func() time.Duration { return 300 * time.Millisecond })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.LookupBatchCtx(ctx, []int64{1}); err == nil {
		t.Fatal("lookup against a stalled server returned before its context expired")
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Errorf("lookup blocked %v past a 20ms context deadline", el)
	}
}

// TestRetriesTransientConnDrops drops the next two accepted connections:
// the lookups that land on them must transparently retry and succeed.
func TestRetriesTransientConnDrops(t *testing.T) {
	srv, addr := newTestStore(t, 1, 5*time.Millisecond, map[int64][]float64{7: {7}})
	c := dialTest(t, store.Config{Addr: addr, BreakerThreshold: -1})
	srv.DropNextConns(2)

	// Dial pooled exactly one connection, so with four concurrent lookups
	// three dial fresh and two of those dials are dropped. The 5ms server
	// latency holds the lookups open long enough that all four acquire
	// connections before any is returned to the pool.
	start := make(chan struct{})
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rows, err := c.LookupBatchCtx(context.Background(), []int64{7})
			if err == nil && rows[0][0] != 7 {
				err = context.Canceled // wrong data: flag it
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("lookup %d: %v", i, err)
		}
	}
	// Each dropped connection fails exactly one attempt, and every failed
	// attempt triggers exactly one retry.
	if st := c.StoreStats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (one per dropped conn)", st.Retries)
	}
}

// TestHedgingCutsTailLatency injects deterministic tail latency (every 4th
// MGET sleeps 50ms) and checks that hedged lookups dodge it: the hedge
// fires after 1ms, lands on a fast ordinal, and wins.
func TestHedgingCutsTailLatency(t *testing.T) {
	srv, addr := newTestStore(t, 1, 0, map[int64][]float64{3: {3}})
	const slow = 50 * time.Millisecond
	var ordinal atomic.Int64
	srv.SetLatencyFunc(func() time.Duration {
		if ordinal.Add(1)%4 == 0 {
			return slow
		}
		return 0
	})

	run := func(c *store.Client, n int) time.Duration {
		var worst time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, err := c.LookupBatchCtx(context.Background(), []int64{3}); err != nil {
				t.Fatalf("lookup %d: %v", i, err)
			}
			if el := time.Since(start); el > worst {
				worst = el
			}
		}
		return worst
	}

	plain := dialTest(t, store.Config{Addr: addr, Retries: -1})
	worstPlain := run(plain, 24)
	if worstPlain < slow {
		t.Fatalf("unhedged worst latency %v, want >= %v (latency injection broken)", worstPlain, slow)
	}

	hedged := dialTest(t, store.Config{Addr: addr, Retries: -1, Hedge: true, HedgeDelay: time.Millisecond})
	worstHedged := run(hedged, 24)
	if worstHedged >= slow/2 {
		t.Errorf("hedged worst latency %v, want well under the %v tail", worstHedged, slow)
	}
	st := hedged.StoreStats()
	if st.HedgesIssued == 0 || st.HedgesWon == 0 {
		t.Errorf("hedge counters = issued %d / won %d, want both > 0", st.HedgesIssued, st.HedgesWon)
	}
}

// TestBreakerDegradesAndRecovers walks the full breaker cycle: consecutive
// failures open it, open-breaker lookups succeed with last-known values
// instead of erroring, and a half-open probe closes it once the store heals.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	srv, addr := newTestStore(t, 2, 0, map[int64][]float64{1: {1, 10}, 2: {2, 20}})
	c := dialTest(t, store.Config{
		Addr:             addr,
		RequestTimeout:   25 * time.Millisecond,
		Retries:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	ctx := context.Background()

	// Healthy lookup: warms the fallback cache.
	if _, err := c.LookupBatchCtx(ctx, []int64{1, 2}); err != nil {
		t.Fatalf("warm lookup: %v", err)
	}

	// Stall the server: attempts now exceed the 25ms request timeout.
	srv.SetLatencyFunc(func() time.Duration { return 500 * time.Millisecond })
	if _, err := c.LookupBatchCtx(ctx, []int64{1}); err == nil {
		t.Fatal("first failure surfaced no error (breaker should still be closed)")
	}
	// Second consecutive failure reaches the threshold; the request that
	// opens the breaker itself degrades rather than erroring.
	rows, err := c.LookupBatchCtx(ctx, []int64{1, 2, 99})
	if err != nil {
		t.Fatalf("breaker-opening lookup errored instead of degrading: %v", err)
	}
	if rows[0][1] != 10 || rows[1][0] != 2 {
		t.Errorf("degraded rows = %v, want last-known values for keys 1,2", rows)
	}
	// A key never seen healthy degrades like a missing key: nil row, which
	// downstream materialization turns into a default (zero) vector.
	if rows[2] != nil {
		t.Errorf("degraded row for unseen key = %v, want nil", rows[2])
	}
	st := c.StoreStats()
	if st.BreakerState != "open" || st.BreakerOpens != 1 || st.Degraded == 0 {
		t.Errorf("after open: state=%q opens=%d degraded=%d, want open/1/>0", st.BreakerState, st.BreakerOpens, st.Degraded)
	}

	// While open, lookups skip the network entirely and stay fast.
	start := time.Now()
	if rows, err = c.LookupBatchCtx(ctx, []int64{2}); err != nil || rows[0][1] != 20 {
		t.Errorf("open-breaker lookup = %v, %v; want cached [2 20]", rows, err)
	}
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Errorf("open-breaker lookup took %v, should not touch the network", el)
	}

	// Heal the server and wait out the cooldown: the next lookup is the
	// half-open probe, succeeds, and closes the breaker.
	srv.SetLatencyFunc(nil)
	time.Sleep(80 * time.Millisecond)
	rows, err = c.LookupBatchCtx(ctx, []int64{1})
	if err != nil || rows[0][1] != 10 {
		t.Fatalf("post-recovery lookup = %v, %v; want fresh [1 10]", rows, err)
	}
	if st := c.StoreStats(); st.BreakerState != "closed" {
		t.Errorf("breaker state after recovery = %q, want closed", st.BreakerState)
	}
}

// TestStartLookupAsync covers the prefetch handle: results published before
// Wait returns, and an expired Wait context cancels the in-flight fetch.
func TestStartLookupAsync(t *testing.T) {
	srv, addr := newTestStore(t, 1, 0, map[int64][]float64{4: {4}})
	c := dialTest(t, store.Config{Addr: addr, Retries: -1, BreakerThreshold: -1})

	p := c.StartLookup(context.Background(), []int64{4})
	rows, err := p.Wait(context.Background())
	if err != nil || rows[0][0] != 4 {
		t.Fatalf("Wait = %v, %v; want [[4]]", rows, err)
	}

	srv.SetLatencyFunc(func() time.Duration { return 300 * time.Millisecond })
	p = c.StartLookup(context.Background(), []int64{4})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.Wait(ctx); err == nil {
		t.Error("Wait returned no error after its context expired mid-fetch")
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Errorf("Wait blocked %v past a 15ms deadline", el)
	}

	// Cancel abandons an in-flight fetch without waiting.
	p = c.StartLookup(context.Background(), []int64{4})
	p.Cancel()
}

// TestConcurrentPooledLookups hammers one client from many goroutines with
// hedging enabled; run under -race in CI it pins the pool, breaker, window,
// and fallback for data races.
func TestConcurrentPooledLookups(t *testing.T) {
	const dim = 4
	rows := make(map[int64][]float64, 64)
	for k := int64(0); k < 64; k++ {
		rows[k] = []float64{float64(k), float64(k) * 2, float64(k) * 3, float64(k) * 4}
	}
	_, addr := newTestStore(t, dim, 0, rows)
	c := dialTest(t, store.Config{Addr: addr, Hedge: true, HedgeDelay: 100 * time.Microsecond})

	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				keys := []int64{int64((g*50 + i) % 64), int64((g + i) % 64)}
				got, err := c.LookupBatchCtx(context.Background(), keys)
				if err != nil {
					failures.Add(1)
					continue
				}
				for j, k := range keys {
					if got[j][0] != float64(k) || got[j][3] != float64(k)*4 {
						failures.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Errorf("%d failed or corrupt concurrent lookups", n)
	}
	if st := c.StoreStats(); st.Requests < 400 {
		t.Errorf("Requests = %d, want >= 400", st.Requests)
	}
}
