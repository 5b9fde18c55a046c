package prefetch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mobiquery/internal/analysis"
	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/sim"
)

// DefaultPrefetchSpeed is the Section 5.2 vprfh estimate for MICA2-class
// hardware (100 m pickup spacing, 5 hops, 60-byte messages, 5 kbit/s
// effective bandwidth): roughly 208 m/s, far above any mobile user.
var DefaultPrefetchSpeed = analysis.PrefetchSpeed(100, 5, 60, 5000)

// Config fixes the quantities a Planner needs: the subscription's temporal
// contract, the field's duty cycle, and the strategy.
type Config struct {
	// Strategy selects how far ahead chains are dispatched.
	Strategy Strategy
	// Radius is the query radius Rq: a prefetched reading is served only to
	// evaluations of nodes inside the predicted circle of this radius.
	Radius float64
	// Period, Deadline, and Fresh are the subscription's temporal contract
	// (Tperiod, the deadline slack, Tfresh).
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration
	// Sleep is the sensor duty-cycle period (Tsleep): how long a sleeping
	// node may take to act on a prefetch message. The session service uses
	// its NetworkConfig.SamplePeriod.
	Sleep time.Duration
	// T0 is the subscription epoch: period k comes due at T0 + k*Period.
	T0 sim.Time
	// UserSpeed and PrefetchSpeed feed the equation-16 warmup bound. Zero
	// UserSpeed estimates the speed from the motion profile; zero
	// PrefetchSpeed selects DefaultPrefetchSpeed.
	UserSpeed     float64
	PrefetchSpeed float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Strategy.Validate(); err != nil {
		return err
	}
	switch {
	case !c.Strategy.Prefetching():
		return fmt.Errorf("prefetch: a planner needs a prefetching strategy, not %v", c.Strategy)
	case c.Radius <= 0:
		return fmt.Errorf("prefetch: radius %v must be positive", c.Radius)
	case c.Period <= 0:
		return fmt.Errorf("prefetch: period %v must be positive", c.Period)
	case c.Deadline < 0 || c.Fresh < 0 || c.Sleep < 0:
		return fmt.Errorf("prefetch: deadline, freshness, and sleep must be non-negative")
	case c.UserSpeed < 0 || c.PrefetchSpeed < 0:
		return fmt.Errorf("prefetch: speeds must be non-negative")
	}
	return nil
}

// holdBound is the equation-10 margin Tsleep + 2*Tfresh: the slack the
// forward time reserves for waking a node and collecting its reading, and
// therefore the longest a prefetched reading may be held before the
// boundary it serves.
func (c Config) holdBound() time.Duration { return c.Sleep + 2*c.Fresh }

// normalized fills derived defaults: the prefetch speed and Greedy's
// minimal safe lookahead ceil((Tsleep+2*Tfresh)/Tperiod)+1 — one more than
// the equation-12 storage constant, the smallest window that still meets
// every equation-10 forward deadline.
func (c Config) normalized() Config {
	if c.PrefetchSpeed <= 0 {
		c.PrefetchSpeed = DefaultPrefetchSpeed
	}
	if c.Strategy.Kind == Greedy && c.Strategy.Lookahead == 0 {
		q := analysis.QueryParams{Period: c.Period, Fresh: c.Fresh, Sleep: c.Sleep}
		c.Strategy.Lookahead = analysis.StorageJIT(q)
	}
	return c
}

// Entry is one period's plan: where the query area will be, when the chain
// serving it is dispatched and captures its readings, and the hold-time
// ledger bounding how long those readings may be served.
type Entry struct {
	// K is the 1-based period index, due at Due.
	K   int
	Due sim.Time
	// Center is the predicted pickup point: the profile's position at Due.
	Center geom.Point
	// LaunchAt is when the chain for this period is dispatched; OnTime
	// reports that it met the equation-10 forward deadline
	// (k-1)*Tperiod - Tsleep - 2*Tfresh, so the answer is staged at the
	// pickup point by the boundary.
	LaunchAt sim.Time
	OnTime   bool
	// ReadyAt is when the period's answer is available at the pickup point:
	// the boundary itself when OnTime, launch + Tsleep + 2*Tfresh when the
	// chain went out late (a warmup period).
	ReadyAt sim.Time
	// CaptureAt is when the in-area nodes take the reading served for this
	// period: the boundary under JIT, the opening of the freshness window
	// under Greedy. HoldUntil = CaptureAt + Tsleep + 2*Tfresh is the
	// equation-10 ledger: past it the prefetched reading may not be served.
	CaptureAt sim.Time
	HoldUntil sim.Time
}

// Planner is one subscription's prefetch plan: a pure function of the
// governing motion profile, the plan epoch (when that profile arrived), and
// the configuration — so the same subscribe/replan/advance sequence always
// yields the same plans regardless of shard or worker count. All methods
// are safe for concurrent use; Replan may race evaluations, which then see
// either the old or the new plan.
type Planner struct {
	cfg    Config
	hold   time.Duration
	served atomic.Int64

	mu          sync.RWMutex
	profile     mobility.Profile
	epoch       sim.Time
	warmupUntil sim.Time
	replans     int
}

// NewPlanner builds the plan for a subscription from its initial motion
// profile, effective at the subscription epoch cfg.T0.
func NewPlanner(cfg Config, profile mobility.Profile) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	p := &Planner{cfg: cfg, hold: cfg.holdBound()}
	p.install(profile, cfg.T0)
	return p, nil
}

// Replan replaces the governing motion profile at virtual time now: the
// user's actual motion diverged (a waypoint update) or a fresher prediction
// arrived. Chains for boundaries past now are re-dispatched from the new
// epoch, which restarts the equation-16 warmup clock — exactly the paper's
// cost of a motion change.
func (p *Planner) Replan(profile mobility.Profile, now sim.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.replans++
	p.install(profile, now)
}

// install records the profile and epoch and derives the warmup horizon.
// Caller holds mu (or owns p exclusively during construction).
func (p *Planner) install(profile mobility.Profile, now sim.Time) {
	p.profile = profile
	p.epoch = now
	ts := profile.TS
	if ts < now {
		ts = now
	}
	p.warmupUntil = ts + p.warmupInterval(profile)
}

// warmupInterval evaluates the equation-16 bound Tw for the profile's
// advance time Ta, clamping the speed ratio away from the poles (a
// stationary user warms up fastest; a user outrunning the prefetch speed
// never stops warming up, which the clamp turns into a very long bound
// rather than a panic).
func (p *Planner) warmupInterval(profile mobility.Profile) time.Duration {
	q := analysis.QueryParams{Period: p.cfg.Period, Fresh: p.cfg.Fresh, Sleep: p.cfg.Sleep}
	vp := p.cfg.PrefetchSpeed
	vu := p.cfg.UserSpeed
	if vu <= 0 {
		vu = profile.Path.VelAt(profile.TS).Len()
	}
	if vu <= 0 || math.IsNaN(vu) {
		vu = 1e-3
	}
	if vu >= vp {
		vu = vp * (1 - 1e-3)
	}
	return analysis.WarmupInterval(q, profile.AdvanceTime(), vu, vp)
}

// kFor inverts due = T0 + k*Period; ok is false when due is not one of this
// subscription's period boundaries.
func (p *Planner) kFor(due sim.Time) (int, bool) {
	d := due - p.cfg.T0
	if d <= 0 || d%p.cfg.Period != 0 {
		return 0, false
	}
	return int(d / p.cfg.Period), true
}

// entryLocked computes period k's plan under the current profile and epoch.
// Caller holds mu (read or write). ok is false outside the plan's coverage:
// k < 1, a boundary before the profile takes effect, or one past its
// validity (a profile with zero Validity covers all future boundaries).
func (p *Planner) entryLocked(k int) (Entry, bool) {
	if k < 1 {
		return Entry{}, false
	}
	due := p.cfg.T0 + sim.Time(k)*p.cfg.Period
	if due < p.profile.TS {
		return Entry{}, false
	}
	if p.profile.Validity > 0 && due > p.profile.Expiry() {
		return Entry{}, false
	}
	q := analysis.QueryParams{Period: p.cfg.Period, Fresh: p.cfg.Fresh, Sleep: p.cfg.Sleep}
	forwardBy := p.cfg.T0 + analysis.PrefetchForwardTime(q, k)
	var launch sim.Time
	switch p.cfg.Strategy.Kind {
	case JIT:
		launch = forwardBy
	case Greedy:
		launch = due - sim.Time(p.cfg.Strategy.Lookahead)*p.cfg.Period
	}
	if launch < p.epoch {
		launch = p.epoch
	}
	e := Entry{
		K:        k,
		Due:      due,
		Center:   p.profile.PredictAt(due),
		LaunchAt: launch,
		OnTime:   launch <= forwardBy,
	}
	e.ReadyAt = due
	if !e.OnTime {
		e.ReadyAt = launch + sim.Time(p.hold)
	}
	e.CaptureAt = due
	if p.cfg.Strategy.Kind == Greedy {
		e.CaptureAt = due - sim.Time(p.cfg.Fresh)
		if e.CaptureAt < launch {
			e.CaptureAt = launch
		}
		if e.CaptureAt > due {
			e.CaptureAt = due
		}
	}
	e.HoldUntil = e.CaptureAt + sim.Time(p.hold)
	return e, true
}

// EntryFor returns the plan entry whose period comes due at the given
// boundary; ok is false when the boundary is outside the plan's coverage.
func (p *Planner) EntryFor(due sim.Time) (Entry, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	k, ok := p.kFor(due)
	if !ok {
		return Entry{}, false
	}
	return p.entryLocked(k)
}

// PlanPeriod implements the core engine's PrefetchPlan: the plan's view of
// the period due at `due`, resolved from a single Entry so staging,
// sampling and warmup stay consistent even when a Replan races the call.
// A staged period is one whose chain met its equation-10 forward deadline
// with readings inside the hold-time ledger: in-area nodes inside the
// predicted pickup circle are served their prefetched reading, captured at
// the plan's capture time, and the answer was ready at the boundary.
// Warmup marks a covered boundary whose chain launched too late, the
// mechanical form of the paper's equation-16 warmup regime after a new
// profile. For the standard slow-user settings the mechanical warmup and
// the closed-form bound agree exactly (pinned by tests); the bound itself,
// rounded to whole periods and widened by the speed ratio, is reported as
// Stats().WarmupUntil.
func (p *Planner) PlanPeriod(due sim.Time) core.PlannedPeriod {
	e, ok := p.EntryFor(due)
	switch {
	case !ok:
		return core.PlannedPeriod{}
	case !e.OnTime || e.Due-e.CaptureAt > sim.Time(p.hold):
		return core.PlannedPeriod{Warmup: true}
	}
	return core.PlannedPeriod{
		Staged:  true,
		Pickup:  e.Center,
		Radius:  p.cfg.Radius,
		Capture: e.CaptureAt,
		Ready:   e.ReadyAt,
	}
}

// NoteServed folds one evaluation's prefetched-contributor count into the
// served ledger. Drivers call it once per period with the evaluation's
// Prefetched count: a per-reading atomic increment was measurable on dense
// Advance batches.
func (p *Planner) NoteServed(n int) {
	if n > 0 {
		p.served.Add(int64(n))
	}
}

// Outstanding counts the chains dispatched but not yet consumed at virtual
// time `at` — the live analogue of the paper's storage metric (equations
// 11 and 12: bounded by the lookahead under Greedy, by the equation-12
// constant under JIT).
func (p *Planner) Outstanding(at sim.Time) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	k := int((at-p.cfg.T0)/p.cfg.Period) + 1
	if k < 1 {
		k = 1
	}
	n := 0
	for ; ; k++ {
		e, ok := p.entryLocked(k)
		if !ok {
			break
		}
		// LaunchAt is non-decreasing in k, so the first future launch ends
		// the outstanding window.
		if e.LaunchAt > at {
			break
		}
		n++
	}
	return n
}

// Stats is a snapshot of the planner's ledger.
type Stats struct {
	// Strategy echoes the normalized strategy (Greedy's default lookahead
	// resolved).
	Strategy Strategy
	// Replans counts profile replacements since the subscription opened.
	Replans int
	// Served counts prefetched readings handed to windowed evaluations.
	Served int64
	// WarmupUntil is the end of the current equation-16 warmup interval;
	// periods due before it are flagged Warmup.
	WarmupUntil sim.Time
	// Epoch is when the governing profile was installed.
	Epoch sim.Time
	// Outstanding is the live equation-11/12 storage count: chains
	// dispatched and not yet consumed (see Planner.Outstanding). The planner
	// leaves it zero; the session layer fills it at read time.
	Outstanding int

	// The corridor counters describe the subscription's spatial corridor
	// cache when one is attached; the session layer fills them from
	// corridor.Cache.Stats (the planner itself never touches them, so they
	// stay zero on a bare Planner). CorridorHits counts periods served
	// from a warm staged buffer, CorridorMisses cold-scan fallbacks,
	// CorridorMispredicts boundaries at which the user's actual position
	// escaped the corridor (each of which forced an immediate re-plan),
	// and CorridorStaged snapshots built over the subscription's lifetime.
	CorridorHits        int64
	CorridorMisses      int64
	CorridorMispredicts int64
	CorridorStaged      int64
}

// Stats returns the planner's ledger snapshot.
func (p *Planner) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Stats{
		Strategy:    p.cfg.Strategy,
		Replans:     p.replans,
		Served:      p.served.Load(),
		WarmupUntil: p.warmupUntil,
		Epoch:       p.epoch,
	}
}
