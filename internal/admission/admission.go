// Package admission is the serving tier's SLO-aware overload defense: a
// per-model controller that replaces "fixed queue depth, 429 when full"
// with three cooperating mechanisms, applied in order of increasing
// desperation:
//
//  1. Predictive shedding. The controller maintains an online service-time
//     forecast (EWMA mean + EWMA deviation over observed per-request
//     execution times, the TCP RTT estimator) and a queueing model that
//     predicts a new arrival's completion time from the current queue
//     length. A request whose predicted finish exceeds its deadline — or
//     the model's configured SLO — is shed at enqueue, before it wastes
//     queue space and compute on an answer nobody will wait for.
//  2. Adaptive concurrency. Instead of a fixed queue depth, an AIMD limit
//     (Netflix concurrency-limits style) tracks how much concurrent work
//     the model can carry while staying inside its SLO: additive increase
//     while observed latency meets the target, multiplicative decrease
//     when it does not. The bounded channel remains only as a hard
//     backstop against controller bugs.
//  3. Brownout degradation. Under measured pressure — observed latency
//     approaching the SLO — the serving tier degrades answers before it
//     sheds them: force cascade small-model-only scoring, shrink top-K
//     budgets, then answer from the prediction cache. Degraded responses
//     are successes carrying a wire marker; a per-request criticality
//     class shifts where on the ladder a request lands, so high-priority
//     traffic degrades last and low-priority traffic degrades first.
//
// The controller sits on every request's admission path, so all state is
// atomic: admit/observe/release never lock and never allocate.
package admission

import (
	"math"
	"sync/atomic"
	"time"

	"willump/internal/metrics"
)

// Criticality classes order request importance for the brownout ladder.
// The zero value is CritNormal so requests that say nothing get the
// default treatment.
type Criticality int8

const (
	// CritLow traffic degrades (and sheds) first.
	CritLow Criticality = -1
	// CritNormal is the default class.
	CritNormal Criticality = 0
	// CritHigh traffic degrades last: the ladder and the predictive
	// shedder both give it extra headroom.
	CritHigh Criticality = 1
)

// ParseCriticality maps the wire/header spelling to a class. Unknown
// spellings (and "") are CritNormal, so garbage never escalates a request.
func ParseCriticality(s string) Criticality {
	switch s {
	case "low":
		return CritLow
	case "high":
		return CritHigh
	default:
		return CritNormal
	}
}

// Level is a rung on the brownout degradation ladder.
type Level int32

const (
	// LevelNormal serves full-fidelity answers.
	LevelNormal Level = iota
	// LevelDegrade forces cascade small-model-only scoring and shrinks
	// top-K candidate budgets: cheaper answers, still computed.
	LevelDegrade
	// LevelCacheOnly answers from the prediction cache when possible and
	// shows shedding pressure to everything else.
	LevelCacheOnly
)

// Config sizes one model's controller.
type Config struct {
	// SLO is the model's target completion bound (p99-flavored: the
	// forecast the shedder compares against is mean + 3 deviations).
	// Zero disables predictive shedding and the adaptive limit — the
	// controller still counts expired pendings and exposes snapshots.
	SLO time.Duration
	// Brownout enables the degradation ladder. Without it the controller
	// stays at LevelNormal and only sheds.
	Brownout bool
	// MinLimit / MaxLimit bound the adaptive concurrency limit.
	// Defaults: 4 and 4096.
	MinLimit int64
	MaxLimit int64
}

func (c Config) withDefaults() Config {
	if c.MinLimit <= 0 {
		c.MinLimit = 4
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 4096
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	return c
}

// Controller is one model's admission state. It lives on the Hosted model
// (not the version), so forecasts and counters survive hot swaps the same
// way serving telemetry does.
type Controller struct {
	cfg Config

	// Service-time forecast, Jacobson/Karels style: srtt tracks the EWMA
	// of observed per-item service time, rttvar the EWMA of its absolute
	// deviation. Both in nanoseconds, updated with atomic CAS-free
	// store-after-load (a lost update under a race skews one sample's
	// weight, which the EWMA absorbs — the same tolerance the trace
	// histograms accept).
	srttNs   atomic.Int64
	rttvarNs atomic.Int64

	// latRatioMilli is EWMA(observed end-to-end latency / SLO) in
	// thousandths: the brownout pressure signal.
	latRatioMilli atomic.Int64

	// Adaptive concurrency limit and the work currently admitted under it
	// (queued + executing items, batched and direct paths together).
	limit    atomic.Int64
	inflight atomic.Int64

	level atomic.Int32

	// Counters, exposed on stats and /metrics.
	shedPredicted  atomic.Int64
	shedLimit      atomic.Int64
	shedBrownout   atomic.Int64
	expired        atomic.Int64
	degradedSmall  atomic.Int64
	degradedBudget atomic.Int64
	degradedCache  atomic.Int64
}

// New returns a controller for one model.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	// Start the limit high: AIMD should discover the constraint by
	// observing latency, not strangle a cold model.
	c.limit.Store(cfg.MaxLimit)
	return c
}

// Enabled reports whether SLO-aware admission (shedding + adaptive limit)
// is active.
func (c *Controller) Enabled() bool { return c != nil && c.cfg.SLO > 0 }

// ewma folds sample into the running estimate with gain 1/8 (the classic
// RTT estimator constant).
func ewma(prev, sample int64) int64 {
	if prev == 0 {
		return sample
	}
	return prev + (sample-prev)/8
}

// Observe records one completed request. service is the time spent
// executing (the queueing model's per-item cost — queue wait excluded,
// or the drain forecast would compound it); total is end-to-end latency
// inside the serving tier including queue wait (what the SLO is about);
// items the number of rows carried. It updates the forecast, the
// brownout pressure, and the AIMD limit. Call it for every completion,
// successful or not — failures consumed service time too.
func (c *Controller) Observe(service, total time.Duration, items int) {
	if c == nil || items <= 0 {
		return
	}
	perItem := int64(service) / int64(items)
	srtt := c.srttNs.Load()
	diff := perItem - srtt
	if diff < 0 {
		diff = -diff
	}
	c.srttNs.Store(ewma(srtt, perItem))
	c.rttvarNs.Store(ewma(c.rttvarNs.Load(), diff))

	if c.cfg.SLO <= 0 {
		return
	}
	// Brownout pressure: how close observed whole-request latency runs to
	// the SLO. >1000 means the SLO is already being missed.
	ratio := int64(total) * 1000 / int64(c.cfg.SLO)
	lr := ewma(c.latRatioMilli.Load(), ratio)
	c.latRatioMilli.Store(lr)
	c.adjustLimit(lr)
	c.adjustLevel(lr)
}

// adjustLimit is the AIMD loop: latency within the SLO grows the limit
// additively (fractionally per observation, so one window of completions
// adds about one slot); latency beyond it cuts multiplicatively.
func (c *Controller) adjustLimit(latRatioMilli int64) {
	lim := c.limit.Load()
	switch {
	case latRatioMilli <= 900: // comfortably inside the SLO
		next := lim + maxI64(1, lim/64)
		if next > c.cfg.MaxLimit {
			next = c.cfg.MaxLimit
		}
		c.limit.Store(next)
	case latRatioMilli > 1000: // missing the SLO
		next := lim * 3 / 4
		if next < c.cfg.MinLimit {
			next = c.cfg.MinLimit
		}
		c.limit.Store(next)
	}
	// Between 0.9 and 1.0: hold — the deadband keeps the limit from
	// oscillating when the system sits right at its target.
}

// adjustLevel moves the brownout ladder with hysteresis: degrade eagerly
// (pressure crosses the rung's threshold), recover only after pressure
// falls well below it.
func (c *Controller) adjustLevel(latRatioMilli int64) {
	if !c.cfg.Brownout {
		return
	}
	cur := Level(c.level.Load())
	next := cur
	switch {
	case latRatioMilli >= 1100:
		next = LevelCacheOnly
	case latRatioMilli >= 800:
		if cur < LevelDegrade {
			next = LevelDegrade
		} else if cur == LevelCacheOnly && latRatioMilli < 900 {
			next = LevelDegrade
		}
	case latRatioMilli < 600:
		next = LevelNormal
	case latRatioMilli < 700 && cur == LevelCacheOnly:
		next = LevelDegrade
	}
	if next != cur {
		c.level.Store(int32(next))
	}
}

// LevelFor returns the degradation rung a request of the given criticality
// experiences right now: high-criticality traffic sees one rung less than
// the measured level, low-criticality traffic one rung more.
func (c *Controller) LevelFor(crit Criticality) Level {
	if c == nil || !c.cfg.Brownout {
		return LevelNormal
	}
	l := Level(c.level.Load()) - Level(crit)
	if l < LevelNormal {
		l = LevelNormal
	}
	if l > LevelCacheOnly {
		l = LevelCacheOnly
	}
	return l
}

// Decision is the outcome of one admission check.
type Decision struct {
	// Shed is true when the request must be rejected (HTTP 429).
	Shed bool
	// RetryAfter is the drain forecast attached to a shed decision: how
	// long until the backlog ahead of this request would have cleared.
	RetryAfter time.Duration
}

// Admit decides whether a request may join the queue. queued is the
// model's current queue length (pendings), budget the request's remaining
// time allowance (its deadline, or 0 to use the model SLO). The caller
// must Release() exactly once for every admitted request.
//
// The check is two predicates, cheapest first:
//
//   - Adaptive limit: admitted concurrent work beyond the AIMD limit is
//     shed outright (high-criticality requests get 25% extra headroom).
//   - Predictive completion: the arrival's forecast finish — the backlog
//     ahead of it plus its own service forecast, padded by 3 forecast
//     deviations — must fit inside the budget. High-criticality requests
//     drop the deviation padding (shed only when the mean forecast
//     already misses); low-criticality requests pad by 4 deviations.
func (c *Controller) Admit(queued int, budget time.Duration, crit Criticality) Decision {
	if c == nil {
		return Decision{}
	}
	if !c.Enabled() {
		c.inflight.Add(1)
		return Decision{}
	}
	inflight := c.inflight.Load()
	lim := c.limit.Load()
	if crit == CritHigh {
		lim += lim / 4
	}
	if inflight >= lim {
		c.shedLimit.Add(1)
		return Decision{Shed: true, RetryAfter: c.Forecast(queued)}
	}

	if budget <= 0 {
		budget = c.cfg.SLO
	} else if c.cfg.SLO > 0 && c.cfg.SLO < budget {
		budget = c.cfg.SLO
	}
	srtt := c.srttNs.Load()
	// Probe rule: an idle model always admits. Without it, a stale
	// pessimistic forecast could shed every arrival, nothing would ever
	// complete, and the forecast would stay frozen — shed forever.
	if srtt > 0 && (queued > 0 || inflight > 0) {
		rttvar := c.rttvarNs.Load()
		pad := int64(3)
		switch crit {
		case CritHigh:
			pad = 0
		case CritLow:
			pad = 4
		}
		predicted := c.Forecast(queued) + time.Duration(srtt+pad*rttvar)
		if predicted > budget {
			c.shedPredicted.Add(1)
			return Decision{Shed: true, RetryAfter: c.Forecast(queued)}
		}
	}
	c.inflight.Add(1)
	return Decision{}
}

// Release returns one admitted request's concurrency slot.
func (c *Controller) Release() {
	if c != nil {
		c.inflight.Add(-1)
	}
}

// Forecast predicts the service time of items rows at the forecast per-item
// rate: how long a backlog of that many takes to clear on the version's
// single execution stream, and how long a batch of that many will run —
// the bound on what the serving tier's straggler wait may cost. Zero before
// the first observation.
func (c *Controller) Forecast(items int) time.Duration {
	if c == nil {
		return 0
	}
	srtt := c.srttNs.Load()
	if srtt <= 0 || items <= 0 {
		return 0
	}
	return time.Duration(int64(items) * srtt)
}

// RetryAfter is the backoff hint attached to any 429 from this model —
// including hard-backstop (full channel) rejections that never reached
// Admit: the drain forecast for the current backlog, floored at one
// forecast service time so a cold controller still hints something.
func (c *Controller) RetryAfter(queued int) time.Duration {
	if c == nil {
		return 0
	}
	d := c.Forecast(queued)
	if srtt := c.srttNs.Load(); d < time.Duration(srtt) {
		d = time.Duration(srtt)
	}
	return d
}

// CountShedBrownout records one request turned away at the cache-only
// brownout rung (no cached answer, criticality too low to proceed).
func (c *Controller) CountShedBrownout() {
	if c != nil {
		c.shedBrownout.Add(1)
	}
}

// CountExpired records pendings culled from a batch because their context
// was already done — work shed after admission but before execution.
func (c *Controller) CountExpired(n int) {
	if c != nil && n > 0 {
		c.expired.Add(int64(n))
	}
}

// CountDegraded records one degraded-but-successful response by mode.
func (c *Controller) CountDegraded(mode string) {
	if c == nil {
		return
	}
	switch mode {
	case DegradedSmallOnly:
		c.degradedSmall.Add(1)
	case DegradedBudget:
		c.degradedBudget.Add(1)
	case DegradedCache:
		c.degradedCache.Add(1)
	}
}

// Degraded wire-marker values: the response's `degraded` field names the
// ladder rung that produced it.
const (
	DegradedSmallOnly = "small-only"
	DegradedBudget    = "budget"
	DegradedCache     = "cache"
)

// Snapshot is a point-in-time copy of the controller: the service-time
// forecast, adaptive concurrency limit, brownout ladder position, and
// shed/degraded/expired counters. It is also the `admission` block of the
// serving stats response — the json tags are that wire format, so a new
// field is declared here once (and exported on /metrics by one row of
// serving's family table).
type Snapshot struct {
	// Enabled mirrors Config.SLO > 0; disabled controllers still count
	// expired pendings. Not on the wire: a client sees SLO instead.
	Enabled bool `json:"-"`
	// SLO is the configured p99 completion target (0 when disabled).
	SLO metrics.Millis `json:"slo_ms,omitempty"`
	// Limit is the current adaptive (AIMD) concurrency limit; Inflight the
	// work admitted under it right now.
	Limit    int64 `json:"limit,omitempty"`
	Inflight int64 `json:"inflight,omitempty"`
	// Level is the measured brownout rung before per-request criticality
	// shifts: 0 normal, 1 degrade, 2 cache-only.
	Level Level `json:"level,omitempty"`
	// ShedPredicted counts requests shed because their forecast finish
	// missed the budget; ShedLimit those shed at the concurrency limit;
	// ShedBrownout those turned away at the cache-only rung.
	ShedPredicted int64 `json:"shed_predicted,omitempty"`
	ShedLimit     int64 `json:"shed_limit,omitempty"`
	ShedBrownout  int64 `json:"shed_brownout,omitempty"`
	// Expired counts admitted pendings culled before execution because
	// their context was already done.
	Expired int64 `json:"expired,omitempty"`
	// DegradedSmallOnly / DegradedBudget / DegradedCache count degraded
	// responses by ladder rung.
	DegradedSmallOnly int64 `json:"degraded_small_only,omitempty"`
	DegradedBudget    int64 `json:"degraded_budget,omitempty"`
	DegradedCache     int64 `json:"degraded_cache,omitempty"`
	// ForecastService is the per-item service-time forecast;
	// ForecastError its mean absolute deviation (the error bound the
	// shedder pads predictions with).
	ForecastService metrics.Millis `json:"forecast_service_ms,omitempty"`
	ForecastError   metrics.Millis `json:"forecast_error_ms,omitempty"`
	// PressureRatio is EWMA(latency/SLO): > 1 means the SLO is being
	// missed.
	PressureRatio float64 `json:"pressure,omitempty"`
}

// Silent reports a disabled controller that never shed, degraded or
// expired anything: there is nothing to say, and stats responses leave the
// admission block out so legacy deployments keep their shape.
func (s Snapshot) Silent() bool {
	return !s.Enabled && s.Expired == 0 &&
		s.ShedPredicted == 0 && s.ShedLimit == 0 && s.ShedBrownout == 0 &&
		s.DegradedSmallOnly == 0 && s.DegradedBudget == 0 && s.DegradedCache == 0
}

// Snapshot copies the controller state.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Enabled:           c.Enabled(),
		SLO:               metrics.Millis(c.cfg.SLO),
		Limit:             c.limit.Load(),
		Inflight:          c.inflight.Load(),
		Level:             Level(c.level.Load()),
		ShedPredicted:     c.shedPredicted.Load(),
		ShedLimit:         c.shedLimit.Load(),
		ShedBrownout:      c.shedBrownout.Load(),
		Expired:           c.expired.Load(),
		DegradedSmallOnly: c.degradedSmall.Load(),
		DegradedBudget:    c.degradedBudget.Load(),
		DegradedCache:     c.degradedCache.Load(),
		ForecastService:   metrics.Millis(c.srttNs.Load()),
		ForecastError:     metrics.Millis(c.rttvarNs.Load()),
		PressureRatio:     float64(c.latRatioMilli.Load()) / 1000,
	}
}

// State is the primable subset of a controller: the service-time
// forecast, the brownout pressure signal, the adaptive limit, and the
// ladder rung. It deliberately excludes counters (telemetry, not control
// state) and inflight (owned by the requests currently admitted).
type State struct {
	ForecastService time.Duration
	ForecastError   time.Duration
	PressureMilli   int64
	Limit           int64
	Level           Level
}

// State captures the controller's control state for re-priming a
// successor across a swap.
func (c *Controller) State() State {
	if c == nil {
		return State{}
	}
	return State{
		ForecastService: time.Duration(c.srttNs.Load()),
		ForecastError:   time.Duration(c.rttvarNs.Load()),
		PressureMilli:   c.latRatioMilli.Load(),
		Limit:           c.limit.Load(),
		Level:           Level(c.level.Load()),
	}
}

// Primed reports whether the controller has a service-time forecast. An
// unprimed controller admits everything until observations accumulate
// (the probe rule in Admit), so a swap that installs an unprimed
// controller under load reopens the cold-start admit-everything window —
// exactly what Reprime closes.
func (c *Controller) Primed() bool { return c != nil && c.srttNs.Load() > 0 }

// Reprime seeds the controller's forecast, pressure, limit, and ladder
// rung from a predecessor's State, so a controller installed by a hot
// swap (new deployment, canary, promote) starts from the incumbent's
// learned equilibrium instead of relearning from cold mid-overload.
// Counters and inflight are untouched. A zero State is a no-op, and the
// limit is clamped to the controller's own bounds.
func (c *Controller) Reprime(st State) {
	if c == nil || st.ForecastService <= 0 {
		return
	}
	c.srttNs.Store(int64(st.ForecastService))
	if st.ForecastError > 0 {
		c.rttvarNs.Store(int64(st.ForecastError))
	}
	if st.PressureMilli > 0 {
		c.latRatioMilli.Store(st.PressureMilli)
	}
	if st.Limit > 0 {
		lim := st.Limit
		if lim < c.cfg.MinLimit {
			lim = c.cfg.MinLimit
		}
		if lim > c.cfg.MaxLimit {
			lim = c.cfg.MaxLimit
		}
		c.limit.Store(lim)
	}
	if c.cfg.Brownout && st.Level >= LevelNormal && st.Level <= LevelCacheOnly {
		c.level.Store(int32(st.Level))
	}
}

func maxI64(a, b int64) int64 {
	return int64(math.Max(float64(a), float64(b)))
}
