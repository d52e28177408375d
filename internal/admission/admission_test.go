package admission

import (
	"testing"
	"time"
)

func feed(c *Controller, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		c.Observe(d, d, 1)
	}
}

func TestDisabledControllerAlwaysAdmits(t *testing.T) {
	c := New(Config{}) // SLO zero: admission off
	if c.Enabled() {
		t.Fatal("zero-SLO controller reports Enabled")
	}
	for i := 0; i < 10_000; i++ {
		if d := c.Admit(1<<20, time.Nanosecond, CritLow); d.Shed {
			t.Fatalf("disabled controller shed at i=%d", i)
		}
	}
	if got := c.Snapshot().Inflight; got != 10_000 {
		t.Fatalf("inflight = %d, want 10000", got)
	}
}

func TestNilControllerSafe(t *testing.T) {
	var c *Controller
	if d := c.Admit(5, time.Second, CritNormal); d.Shed {
		t.Fatal("nil controller shed")
	}
	c.Release()
	c.Observe(time.Millisecond, time.Millisecond, 1)
	c.CountExpired(3)
	c.CountDegraded(DegradedCache)
	if c.LevelFor(CritLow) != LevelNormal {
		t.Fatal("nil controller not at LevelNormal")
	}
	if c.RetryAfter(10) != 0 {
		t.Fatal("nil controller RetryAfter != 0")
	}
	if s := c.Snapshot(); s.Enabled {
		t.Fatal("nil controller snapshot enabled")
	}
}

func TestForecastConvergesToServiceTime(t *testing.T) {
	c := New(Config{SLO: time.Second})
	feed(c, 2*time.Millisecond, 64)
	s := c.Snapshot()
	if svc := time.Duration(s.ForecastService); svc < time.Millisecond || svc > 3*time.Millisecond {
		t.Fatalf("forecast %v, want ~2ms", svc)
	}
	// Steady input: deviation collapses toward zero.
	if time.Duration(s.ForecastError) > time.Millisecond {
		t.Fatalf("forecast error %v, want small under steady input", s.ForecastError)
	}
}

func TestPredictiveShedOnDeepQueue(t *testing.T) {
	c := New(Config{SLO: 100 * time.Millisecond})
	feed(c, 10*time.Millisecond, 64) // forecast ~10ms/item

	// Queue of 2: predicted finish ~30ms, inside the SLO.
	if d := c.Admit(2, 0, CritNormal); d.Shed {
		t.Fatalf("shed with shallow queue: %+v", d)
	}
	c.Release()
	// Queue of 50: predicted finish ~510ms, far past the SLO.
	d := c.Admit(50, 0, CritNormal)
	if !d.Shed {
		t.Fatal("did not shed with 50-deep queue and 10ms/item forecast")
	}
	if d.RetryAfter < 400*time.Millisecond || d.RetryAfter > 700*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ~500ms drain forecast", d.RetryAfter)
	}
	if got := c.Snapshot().ShedPredicted; got != 1 {
		t.Fatalf("ShedPredicted = %d, want 1", got)
	}
}

func TestPredictiveShedUsesRequestDeadline(t *testing.T) {
	c := New(Config{SLO: time.Second})
	feed(c, 10*time.Millisecond, 64)
	// Tight caller budget sheds even though the SLO would admit.
	if d := c.Admit(5, 20*time.Millisecond, CritNormal); !d.Shed {
		t.Fatal("did not shed a request whose own deadline cannot be met")
	}
	if d := c.Admit(5, 900*time.Millisecond, CritNormal); d.Shed {
		t.Fatal("shed a request with ample budget")
	}
	c.Release()
}

func TestCriticalityShiftsShedDecision(t *testing.T) {
	c := New(Config{SLO: 100 * time.Millisecond})
	// Noisy service times: big deviation, so the padding matters.
	for i := 0; i < 64; i++ {
		d := 5 * time.Millisecond
		if i%2 == 0 {
			d = 15 * time.Millisecond
		}
		c.Observe(d, d, 1)
	}
	s := c.Snapshot()
	// Pick a queue depth where mean fits but mean+3dev does not.
	perItem := time.Duration(s.ForecastService)
	q := int((100*time.Millisecond - perItem - 2*time.Duration(s.ForecastError)) / perItem)
	dn := c.Admit(q, 0, CritNormal)
	dh := c.Admit(q, 0, CritHigh)
	if !dh.Shed {
		c.Release()
	}
	if dn.Shed && dh.Shed {
		t.Fatal("high criticality got no extra admission headroom")
	}
	if !dn.Shed {
		c.Release()
		t.Skipf("forecast landed outside the discriminating band (svc=%v dev=%v q=%d)", perItem, s.ForecastError, q)
	}
}

func TestAdaptiveLimitShedsAndRecovers(t *testing.T) {
	c := New(Config{SLO: 10 * time.Millisecond, MinLimit: 4, MaxLimit: 64})
	// Whole-request latency way over SLO (but cheap service time, so the
	// predictive gate stays open): multiplicative decrease to the floor.
	for i := 0; i < 64; i++ {
		c.Observe(100*time.Microsecond, 100*time.Millisecond, 1)
	}
	if got := c.Snapshot().Limit; got != 4 {
		t.Fatalf("limit = %d after sustained SLO misses, want floor 4", got)
	}
	// Fill the limit, next arrival sheds at the limit gate.
	for i := 0; i < 4; i++ {
		if d := c.Admit(0, time.Hour, CritNormal); d.Shed {
			t.Fatalf("shed below limit at i=%d", i)
		}
	}
	if d := c.Admit(0, time.Hour, CritNormal); !d.Shed {
		t.Fatal("did not shed at the adaptive limit")
	}
	if got := c.Snapshot().ShedLimit; got != 1 {
		t.Fatalf("ShedLimit = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		c.Release()
	}
	// Latency back inside the SLO: additive increase reopens the limit.
	feed(c, time.Millisecond, 256)
	if got := c.Snapshot().Limit; got <= 4 {
		t.Fatalf("limit = %d after recovery, want growth above floor", got)
	}
}

func TestHighCriticalityLimitHeadroom(t *testing.T) {
	c := New(Config{SLO: 10 * time.Millisecond, MinLimit: 4, MaxLimit: 64})
	for i := 0; i < 64; i++ {
		c.Observe(100*time.Microsecond, 100*time.Millisecond, 1) // limit at floor 4
	}
	for i := 0; i < 4; i++ {
		c.Admit(0, time.Hour, CritHigh)
	}
	// Normal sheds at 4, high rides the +25% headroom (limit 5).
	if d := c.Admit(0, time.Hour, CritNormal); !d.Shed {
		t.Fatal("normal criticality did not shed at the limit")
	}
	if d := c.Admit(0, time.Hour, CritHigh); d.Shed {
		t.Fatal("high criticality shed without using its headroom")
	}
}

func TestBrownoutLadderWithHysteresis(t *testing.T) {
	c := New(Config{SLO: 10 * time.Millisecond, Brownout: true})
	if got := c.LevelFor(CritNormal); got != LevelNormal {
		t.Fatalf("initial level %v, want LevelNormal", got)
	}
	// Pressure just under the SLO: degrade.
	feed(c, 9*time.Millisecond, 64)
	if got := c.LevelFor(CritNormal); got != LevelDegrade {
		t.Fatalf("level %v at 0.9×SLO, want LevelDegrade", got)
	}
	// Pressure past the SLO: cache-only.
	feed(c, 15*time.Millisecond, 64)
	if got := c.LevelFor(CritNormal); got != LevelCacheOnly {
		t.Fatalf("level %v at 1.5×SLO, want LevelCacheOnly", got)
	}
	// Criticality shifts the rung: high sees one less, low is pinned at max.
	if got := c.LevelFor(CritHigh); got != LevelDegrade {
		t.Fatalf("high-crit level %v under cache-only pressure, want LevelDegrade", got)
	}
	if got := c.LevelFor(CritLow); got != LevelCacheOnly {
		t.Fatalf("low-crit level %v, want LevelCacheOnly", got)
	}
	// Pressure falls: recover through the ladder, not straight to normal.
	feed(c, 6*time.Millisecond, 64)
	if got := c.LevelFor(CritNormal); got != LevelDegrade {
		t.Fatalf("level %v at 0.6×SLO on the way down, want LevelDegrade (hysteresis)", got)
	}
	feed(c, time.Millisecond, 64)
	if got := c.LevelFor(CritNormal); got != LevelNormal {
		t.Fatalf("level %v after pressure cleared, want LevelNormal", got)
	}
}

func TestBrownoutDisabledStaysNormal(t *testing.T) {
	c := New(Config{SLO: 10 * time.Millisecond})
	feed(c, time.Second, 64)
	for _, crit := range []Criticality{CritLow, CritNormal, CritHigh} {
		if got := c.LevelFor(crit); got != LevelNormal {
			t.Fatalf("LevelFor(%d) = %v without brownout, want LevelNormal", crit, got)
		}
	}
}

func TestRetryAfterColdAndWarm(t *testing.T) {
	c := New(Config{SLO: time.Second})
	if got := c.RetryAfter(100); got != 0 {
		t.Fatalf("cold RetryAfter = %v, want 0 (no forecast yet)", got)
	}
	feed(c, 10*time.Millisecond, 64)
	if got := c.RetryAfter(0); got < 5*time.Millisecond {
		t.Fatalf("warm empty-queue RetryAfter = %v, want >= one service time", got)
	}
	got := c.RetryAfter(20)
	if got < 150*time.Millisecond || got > 300*time.Millisecond {
		t.Fatalf("RetryAfter(20) = %v, want ~200ms", got)
	}
}

func TestCounters(t *testing.T) {
	c := New(Config{SLO: time.Second, Brownout: true})
	c.CountExpired(3)
	c.CountExpired(0)
	c.CountExpired(-1)
	c.CountDegraded(DegradedSmallOnly)
	c.CountDegraded(DegradedSmallOnly)
	c.CountDegraded(DegradedBudget)
	c.CountDegraded(DegradedCache)
	c.CountDegraded("nonsense")
	s := c.Snapshot()
	if s.Expired != 3 {
		t.Fatalf("Expired = %d, want 3", s.Expired)
	}
	if s.DegradedSmallOnly != 2 || s.DegradedBudget != 1 || s.DegradedCache != 1 {
		t.Fatalf("degraded counts = %d/%d/%d, want 2/1/1",
			s.DegradedSmallOnly, s.DegradedBudget, s.DegradedCache)
	}
}

func TestParseCriticality(t *testing.T) {
	cases := map[string]Criticality{
		"low": CritLow, "high": CritHigh, "normal": CritNormal,
		"": CritNormal, "urgent": CritNormal,
	}
	for in, want := range cases {
		if got := ParseCriticality(in); got != want {
			t.Fatalf("ParseCriticality(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestInflightReleaseBalance(t *testing.T) {
	c := New(Config{SLO: time.Second})
	for i := 0; i < 100; i++ {
		c.Admit(0, 0, CritNormal)
	}
	for i := 0; i < 100; i++ {
		c.Release()
	}
	if got := c.Snapshot().Inflight; got != 0 {
		t.Fatalf("inflight = %d after balanced admit/release, want 0", got)
	}
}

func TestReprimeClosesColdStartWindow(t *testing.T) {
	old := New(Config{SLO: 5 * time.Millisecond, Brownout: true, MinLimit: 4, MaxLimit: 64})
	// Drive the incumbent into a learned overload equilibrium: service
	// times near the SLO, pressure above 1, limit cut, ladder raised.
	feed(old, 8*time.Millisecond, 64)
	st := old.State()
	if st.ForecastService <= 0 || st.PressureMilli <= 1000 || st.Level == LevelNormal {
		t.Fatalf("incumbent not in overload equilibrium: %+v", st)
	}

	fresh := New(Config{SLO: 5 * time.Millisecond, Brownout: true, MinLimit: 4, MaxLimit: 64})
	if fresh.Primed() {
		t.Fatal("fresh controller reports primed")
	}
	// The cold-start window: with srtt == 0 the probe rule admits
	// everything, even with a deep backlog and a tiny budget.
	if d := fresh.Admit(1000, time.Microsecond, CritNormal); d.Shed {
		t.Fatal("cold controller shed (expected admit-everything window)")
	}
	fresh.Release()

	fresh.Reprime(st)
	if !fresh.Primed() {
		t.Fatal("reprimed controller not primed")
	}
	got := fresh.State()
	if got.ForecastService != st.ForecastService || got.Level != st.Level || got.Limit != st.Limit {
		t.Fatalf("reprimed state %+v, want %+v", got, st)
	}
	// Occupy one slot so the probe rule's idle bypass doesn't apply, then
	// check a doomed arrival is shed immediately — no relearning window.
	if d := fresh.Admit(0, time.Second, CritNormal); d.Shed {
		t.Fatal("first admitted request shed")
	}
	if d := fresh.Admit(1000, time.Microsecond, CritNormal); !d.Shed {
		t.Fatal("reprimed controller admitted a doomed request (cold-start window reopened)")
	}
	fresh.Release()
}

func TestReprimeClampsAndIgnoresZero(t *testing.T) {
	c := New(Config{SLO: time.Second, MinLimit: 8, MaxLimit: 32})
	c.Reprime(State{}) // zero state: no-op
	if c.Primed() {
		t.Fatal("zero-state Reprime primed the controller")
	}
	c.Reprime(State{ForecastService: time.Millisecond, Limit: 1 << 20})
	if got := c.State().Limit; got != 32 {
		t.Fatalf("limit %d, want clamped to MaxLimit 32", got)
	}
	c.Reprime(State{ForecastService: time.Millisecond, Limit: 1})
	if got := c.State().Limit; got != 8 {
		t.Fatalf("limit %d, want clamped to MinLimit 8", got)
	}
	// Brownout disabled: the ladder rung must not be imported.
	c.Reprime(State{ForecastService: time.Millisecond, Level: LevelCacheOnly})
	if got := c.LevelFor(CritNormal); got != LevelNormal {
		t.Fatalf("level %v imported with brownout disabled", got)
	}
}
