package livefig

import (
	"fmt"
	"math"
	"time"

	"mobiquery"
	"mobiquery/internal/geom"
)

// PrefetchConfig describes the strategy-comparison scenario: the same
// mobile-user population, sensor field, and coarse service clock run three
// times — on-demand, just-in-time, and greedy prefetching — so the live
// effect of predictive sampling along the motion profile (lateness,
// staleness, prefetched readings, storage) is measured head to head. The
// field's duty cycle deliberately exceeds the freshness window and the
// clock tick deliberately misaligns with the period, which is exactly the
// regime the paper's prefetching exists for.
type PrefetchConfig struct {
	Sensors
	Contract

	// Users mobile users walk straight lines for Duration while the
	// virtual clock advances by Tick (chosen to misalign with Period, so
	// on-demand collection runs late).
	Users    int
	Duration time.Duration
	Tick     time.Duration

	// Lookahead is Greedy's chain window (periods ahead); zero selects the
	// planner's minimal safe default.
	Lookahead int
}

// DefaultPrefetch returns the headline comparison: 40 walking users over
// the sleepy 5k-node field, evaluated on a 300 ms clock.
func DefaultPrefetch() PrefetchConfig {
	sensors, contract := sleepyField()
	return PrefetchConfig{
		Sensors:   sensors,
		Contract:  contract,
		Users:     40,
		Duration:  30 * time.Second,
		Tick:      300 * time.Millisecond,
		Lookahead: 12,
	}
}

// Validate reports figure-level configuration errors; network and query
// errors surface from the session when the figure runs.
func (c PrefetchConfig) Validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("livefig: prefetch Users must be positive")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("livefig: prefetch Tick must be positive and Duration at least one Period")
	}
	return nil
}

// StrategyOutcome is one strategy's ledger over the shared workload.
type StrategyOutcome struct {
	Strategy mobiquery.Strategy
	Totals

	// PeakOutstanding is the largest per-user count of dispatched,
	// unconsumed chains, sampled after every clock step — the live
	// equation-11/12 storage metric (zero on demand).
	PeakOutstanding int
}

// PrefetchResult is the three-strategy comparison.
type PrefetchResult struct {
	Config   PrefetchConfig
	OnDemand StrategyOutcome
	JIT      StrategyOutcome
	Greedy   StrategyOutcome
	Elapsed  time.Duration
}

// Outcomes lists the three ledgers in comparison order.
func (r PrefetchResult) Outcomes() []StrategyOutcome {
	return []StrategyOutcome{r.OnDemand, r.JIT, r.Greedy}
}

// RunPrefetch executes the comparison: one session per strategy over an
// identical field and user population walking straight lines, whose exact
// motion profiles the service synthesizes on Subscribe.
func RunPrefetch(cfg PrefetchConfig) (PrefetchResult, error) {
	if err := cfg.Validate(); err != nil {
		return PrefetchResult{}, err
	}
	rng := userRNG(cfg.Seed)
	inner := innerBand(cfg.RegionSide)
	motions := make([]mobiquery.MotionSource, cfg.Users)
	for i := range motions {
		start := inner.UniformPoint(rng)
		vel := geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(1 + rng.Float64()*4)
		motions[i] = mobiquery.LinearMotion(start, vel.DX, vel.DY)
	}

	res := PrefetchResult{Config: cfg}
	start := time.Now()
	for _, arm := range []struct {
		strat mobiquery.Strategy
		out   *StrategyOutcome
	}{
		{mobiquery.OnDemandStrategy(), &res.OnDemand},
		{mobiquery.JITStrategy(), &res.JIT},
		{mobiquery.GreedyStrategy(cfg.Lookahead), &res.Greedy},
	} {
		s := Session{Network: cfg.network(), Tick: cfg.Tick, Duration: cfg.Duration}
		for _, m := range motions {
			s.Users = append(s.Users, User{Spec: cfg.spec(arm.strat), Motion: m})
		}
		run, err := s.Run()
		if err != nil {
			return PrefetchResult{}, err
		}
		t := total(run.Users)
		out := StrategyOutcome{Strategy: arm.strat, Totals: t.totals(), PeakOutstanding: t.PeakOutstanding}
		if arm.strat.Prefetching() {
			out.Strategy = run.Users[0].Prefetch.Strategy // Greedy's default lookahead resolved
		}
		*arm.out = out
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
