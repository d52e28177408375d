package store

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"willump/internal/metrics"
)

// TestHedgeDelayAllocFree pins the adaptive hedge trigger and the stats read
// on the hedged-lookup path: the delay is the latency window's p90 clamped
// to [200µs, RequestTimeout/2] — checked against an exact sort of the same
// observations — and neither read allocates (or sorts: they walk buckets).
func TestHedgeDelayAllocFree(t *testing.T) {
	c := &Client{
		cfg: Config{Addr: "unused"}.withDefaults(),
		lat: metrics.NewSliding(latencyWindow),
	}
	if got := c.hedgeDelay(); got != defaultHedgeDelay {
		t.Fatalf("delay before any observation = %v, want the default %v", got, defaultHedgeDelay)
	}
	rng := rand.New(rand.NewSource(1))
	obs := make([]time.Duration, 600) // under latencyWindow·3/4: every one is still in the window
	for i := range obs {
		obs[i] = 300*time.Microsecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)))
		c.lat.Observe(obs[i])
	}
	sort.Slice(obs, func(a, b int) bool { return obs[a] < obs[b] })
	exact := obs[len(obs)*9/10-1] // nearest rank: the ceil(0.9·n)-th smallest
	if got := c.hedgeDelay(); (got - exact).Abs() > exact/32 {
		t.Errorf("adaptive delay = %v, exact p90 of the same observations %v (beyond 1/32)", got, exact)
	}
	if a := testing.AllocsPerRun(100, func() { c.hedgeDelay() }); a != 0 {
		t.Errorf("hedgeDelay allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { c.StoreStats() }); a != 0 {
		t.Errorf("StoreStats allocates %.1f/op, want 0", a)
	}

	c.lat.Reset()
	for i := 0; i < minAdaptiveObservations; i++ {
		c.lat.Observe(10 * time.Microsecond)
	}
	if got := c.hedgeDelay(); got != 200*time.Microsecond {
		t.Errorf("delay over a 10µs window = %v, want the 200µs floor", got)
	}
	for i := 0; i < latencyWindow; i++ {
		c.lat.Observe(time.Minute)
	}
	if got, want := c.hedgeDelay(), c.cfg.RequestTimeout/2; got != want {
		t.Errorf("delay over a 1m window = %v, want the RequestTimeout/2 ceiling %v", got, want)
	}
}
