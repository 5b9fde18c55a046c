package livefig

import (
	"fmt"
	"math"
	"time"

	"mobiquery"
	"mobiquery/internal/geom"
)

// ChurnConfig describes the dynamic-membership scenario: a static
// population of streaming users holds session-long subscriptions while
// churners join and leave mid-run, all on one live service. The scenario's
// acceptance property is that churn never perturbs the static users'
// results.
type ChurnConfig struct {
	Sensors
	Contract

	// Static users subscribe at t=0 and stay; Churners join at staggered
	// times and leave again before the run ends. The virtual clock
	// advances by Tick for Duration.
	Static   int
	Churners int
	Duration time.Duration
	Tick     time.Duration
}

// DefaultChurn returns the headline churn scenario: 50 resident streaming
// users over a 5k-node field with 100 users cycling through mid-run.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Sensors:  Sensors{Seed: 1, Nodes: 5000, RegionSide: 2000, SamplePeriod: time.Second, Field: gradient},
		Contract: Contract{Radius: 150, Period: 2 * time.Second, Fresh: time.Second},
		Static:   50,
		Churners: 100,
		Duration: 60 * time.Second,
		Tick:     100 * time.Millisecond,
	}
}

// Validate reports figure-level configuration errors; network and query
// errors surface from the session when the figure runs.
func (c ChurnConfig) Validate() error {
	switch {
	case c.Static <= 0 || c.Churners < 0:
		return fmt.Errorf("livefig: churn Static must be positive, Churners non-negative")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("livefig: churn Tick must be positive and Duration at least one Period")
	}
	return nil
}

// ChurnResult summarizes one churn run. StaticDigest is a pure function of
// the configuration minus the churners: a run with Churners=0 and an
// otherwise identical one must agree on it, which is how the tests pin the
// isolation property of dynamic membership.
type ChurnResult struct {
	Config ChurnConfig

	// Evaluations counts delivered periods across all users; Late those
	// past the deadline slack; StaleExclusions the total in-area readings
	// rejected by the freshness window.
	Evaluations     int
	Late            int
	StaleExclusions int

	// Joins and Leaves count churner arrivals and departures that actually
	// happened; PeakLive is the largest concurrent population.
	Joins    int
	Leaves   int
	PeakLive int

	// MeanFresh is the mean number of contributing (fresh) sensors per
	// evaluation.
	MeanFresh float64

	// StaticDigest is an order-independent digest of every static user's
	// ordered per-period results.
	StaticDigest uint64

	Elapsed time.Duration
}

// RunChurn executes the churn scenario: the static population subscribes
// at t=0, churners join and leave mid-run, and every live user's periods
// stream through the service's freshness-windowed temporal path.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	if err := cfg.Validate(); err != nil {
		return ChurnResult{}, err
	}
	rng := userRNG(cfg.Seed)
	region := geom.Square(cfg.RegionSide)
	spec := cfg.spec(mobiquery.OnDemandStrategy())
	walk := func() mobiquery.MotionSource {
		start := region.UniformPoint(rng)
		speed := 1 + rng.Float64()*4
		return clampedWalk{region: region, start: start, vel: geom.FromAngle(rng.Float64() * 2 * math.Pi).Scale(speed)}
	}
	s := Session{Network: cfg.network(), Tick: cfg.Tick, Duration: cfg.Duration}
	for i := 0; i < cfg.Static; i++ {
		s.Users = append(s.Users, User{Spec: spec, Motion: walk()})
	}
	// Churners draw their randomness after the static users, from the same
	// serial stream: removing them (Churners=0) leaves the static
	// population's placement and courses untouched.
	for j := 0; j < cfg.Churners; j++ {
		motion := walk()
		join := time.Duration(rng.Int63n(int64(cfg.Duration * 7 / 10)))
		dwell := cfg.Duration/10 + time.Duration(rng.Int63n(int64(cfg.Duration/5)))
		s.Users = append(s.Users, User{Spec: spec, Motion: motion, Join: join, Leave: join + dwell})
	}

	run, err := s.Run()
	if err != nil {
		return ChurnResult{}, err
	}
	all := total(run.Users)
	res := ChurnResult{
		Config:          cfg,
		Evaluations:     all.Periods,
		Late:            all.Late,
		StaleExclusions: all.StaleNodes,
		PeakLive:        run.PeakLive,
		StaticDigest:    total(run.Users[:cfg.Static]).Digest,
		Elapsed:         run.Elapsed,
	}
	for _, l := range run.Users[cfg.Static:] {
		if l.Joined {
			res.Joins++
		}
		if l.Left {
			res.Leaves++
		}
	}
	if all.Periods > 0 {
		res.MeanFresh = float64(all.Contributors) / float64(all.Periods)
	}
	return res, nil
}

// clampedWalk walks a straight line from start at vel, measured from the
// subscription instant, held inside region.
type clampedWalk struct {
	region geom.Rect
	start  geom.Point
	vel    geom.Vec
}

func (w clampedWalk) PositionAt(t time.Duration) mobiquery.Point {
	return w.region.Clamp(w.start.Add(w.vel.Scale(t.Seconds())))
}
