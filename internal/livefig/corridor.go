package livefig

import (
	"fmt"
	"time"

	"mobiquery"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
)

// CorridorConfig describes the corridor-comparison scenario: the same
// turning mobile-user population and sleepy sensor field evaluated five
// ways — on demand, just-in-time prefetching from exact per-leg motion
// profiles, JIT from a noisy GPS predictor's profiles, and both profile
// modes again with the spatial corridor cache staging node snapshots along
// the predicted path. It measures what the corridor buys (warm staged
// evaluations instead of cold index scans) and what prediction error costs
// (mispredicts, late periods), on top of the timing-only planner.
type CorridorConfig struct {
	Sensors
	Contract

	// Users follow random-direction ground-truth courses (speed in
	// [SpeedMin, SpeedMax], new heading every ChangeInterval) for Duration,
	// evaluated on a Tick clock misaligned with Period.
	Users          int
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
	Duration       time.Duration
	Tick           time.Duration

	// GPSSampling and GPSError parameterize the noisy profile modes'
	// history-based predictor (the paper's Section 6.3 location error).
	GPSSampling time.Duration
	GPSError    float64

	// Lookahead is how many boundaries ahead the corridor stages.
	// ErrorBound is the noisy arms' corridor inflation in meters; zero
	// selects a practical default (the predictor's re-profiling threshold
	// plus two GPS error radii) — deliberately tighter than the proven
	// worst case, so sharp turns surface as mispredicts.
	Lookahead  int
	ErrorBound float64
}

// DefaultCorridor returns the headline comparison: the prefetch scenario's
// 40-user sleepy field, but with turning courses and a 2 s / 5 m GPS
// predictor feeding the planners.
func DefaultCorridor() CorridorConfig {
	sensors, contract := sleepyField()
	return CorridorConfig{
		Sensors:        sensors,
		Contract:       contract,
		Users:          40,
		SpeedMin:       1,
		SpeedMax:       5,
		ChangeInterval: 8 * time.Second,
		Duration:       30 * time.Second,
		Tick:           300 * time.Millisecond,
		GPSSampling:    2 * time.Second,
		GPSError:       5,
		Lookahead:      4,
	}
}

// Validate reports figure-level configuration errors; network, course,
// predictor and query errors surface from the session when the figure
// runs. Lookahead is checked here because the session reads zero as "no
// corridor", which would silently turn the corridor arms into JIT arms.
func (c CorridorConfig) Validate() error {
	switch {
	case c.Users <= 0:
		return fmt.Errorf("livefig: corridor Users must be positive")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("livefig: corridor Tick must be positive and Duration at least one Period")
	case c.Lookahead <= 0:
		return fmt.Errorf("livefig: corridor Lookahead must be positive")
	}
	return nil
}

// noisyBound resolves the noisy arms' corridor inflation.
func (c CorridorConfig) noisyBound() float64 {
	if c.ErrorBound != 0 {
		return c.ErrorBound
	}
	return mobility.DefaultThreshold(c.GPSError) + 2*c.GPSError
}

// exactBound is the exact arms' inflation: per-leg exact profiles predict
// the course bit-for-bit away from partial-segment interpolation, so a few
// meters absorb float noise.
const exactBound = 2.0

// CorridorOutcome is one arm's ledger over the shared workload.
type CorridorOutcome struct {
	// Label names the arm; Strategy echoes the planner strategy (zero for
	// on-demand); Noisy and Corridor say which profile mode and whether
	// the spatial cache ran.
	Label    string
	Strategy mobiquery.Strategy
	Noisy    bool
	Corridor bool

	// Totals' digest never covers the warm/cold route, so a corridor arm
	// agrees with its corridor-less twin unless a mispredict re-planned.
	Totals

	// StagedHits counts periods served warm from a corridor stage;
	// ColdEvaluations the rest (the two partition Evaluations).
	// Mispredicts counts boundaries whose actual position escaped the
	// corridor; Replans profile replacements (predictor deliveries plus
	// mispredict corrections).
	StagedHits      int
	ColdEvaluations int
	Mispredicts     int
	Replans         int

	// WarmEvalNs and ColdEvalNs are mean wall nanoseconds per warm and
	// cold evaluation, from the service's per-class evaluation histograms
	// — the corridor's evaluation-cost claim, measured. Wall time:
	// reported, never part of the digest.
	WarmEvalNs float64
	ColdEvalNs float64
}

// StagedHitRate returns StagedHits / Evaluations.
func (o CorridorOutcome) StagedHitRate() float64 {
	if o.Evaluations == 0 {
		return 0
	}
	return float64(o.StagedHits) / float64(o.Evaluations)
}

// CorridorResult is the five-arm comparison.
type CorridorResult struct {
	Config  CorridorConfig
	Arms    []CorridorOutcome
	Elapsed time.Duration
}

// Arm returns the outcome with the given label, by value.
func (r CorridorResult) Arm(label string) (CorridorOutcome, bool) {
	for _, a := range r.Arms {
		if a.Label == label {
			return a, true
		}
	}
	return CorridorOutcome{}, false
}

// RunCorridor executes the comparison: one session per arm over an
// identical field and user population. Exact arms follow PlannedMotion
// (per-leg profiles delivered as each leg starts), noisy arms
// GPSPredictedMotion over the same courses.
func RunCorridor(cfg CorridorConfig) (CorridorResult, error) {
	if err := cfg.Validate(); err != nil {
		return CorridorResult{}, err
	}
	// Courses and predictor seeds are drawn serially up front, so every
	// arm sees the same workload.
	rng := userRNG(cfg.Seed)
	inner := innerBand(cfg.RegionSide)
	exact := make([]mobiquery.MotionSource, cfg.Users)
	noisy := make([]mobiquery.MotionSource, cfg.Users)
	for i := range exact {
		course := mobiquery.CourseConfig{
			Seed:           rng.Int63(),
			RegionSide:     cfg.RegionSide,
			Start:          inner.UniformPoint(rng),
			SpeedMin:       cfg.SpeedMin,
			SpeedMax:       cfg.SpeedMax,
			ChangeInterval: cfg.ChangeInterval,
			Duration:       cfg.Duration,
		}
		gps := mobiquery.GPSConfig{Seed: rng.Int63(), Sampling: cfg.GPSSampling, Error: cfg.GPSError}
		var err error
		if exact[i], err = mobiquery.PlannedMotion(course); err != nil {
			return CorridorResult{}, fmt.Errorf("livefig: user %d course: %w", i, err)
		}
		if noisy[i], err = mobiquery.GPSPredictedMotion(course, gps); err != nil {
			return CorridorResult{}, fmt.Errorf("livefig: user %d predictor: %w", i, err)
		}
	}

	jit := mobiquery.JITStrategy()
	res := CorridorResult{Config: cfg}
	start := time.Now()
	for _, arm := range []CorridorOutcome{
		{Label: "on-demand"},
		{Label: "jit/exact", Strategy: jit},
		{Label: "jit/noisy", Strategy: jit, Noisy: true},
		{Label: "jit+corridor/exact", Strategy: jit, Corridor: true},
		{Label: "jit+corridor/noisy", Strategy: jit, Noisy: true, Corridor: true},
	} {
		spec := cfg.spec(arm.Strategy)
		motions := exact
		bound := exactBound
		if arm.Noisy {
			motions, bound = noisy, cfg.noisyBound()
		}
		if arm.Corridor {
			spec.Corridor = mobiquery.CorridorSpec{Lookahead: cfg.Lookahead, ErrorModel: mobiquery.ErrorModel{Base: bound}}
		}
		s := Session{Network: cfg.network(), Tick: cfg.Tick, Duration: cfg.Duration}
		for _, m := range motions {
			s.Users = append(s.Users, User{Spec: spec, Motion: m})
		}
		run, err := s.Run()
		if err != nil {
			return CorridorResult{}, err
		}
		t := total(run.Users)
		arm.Totals = t.totals()
		arm.StagedHits = int(t.Prefetch.CorridorHits)
		arm.ColdEvaluations = t.Periods - arm.StagedHits
		arm.Mispredicts = int(t.Prefetch.CorridorMispredicts)
		arm.Replans = t.Prefetch.Replans
		arm.WarmEvalNs, arm.ColdEvalNs = evalNs(run.Metrics)
		res.Arms = append(res.Arms, arm)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// evalNs returns the mean evaluation wall time of corridor-served periods
// and of every other period, from the service's
// mobiquery_evaluate_seconds{class=…} histograms.
func evalNs(reg *mobiquery.MetricsRegistry) (warm, cold float64) {
	var sum, n [2]float64 // [cold, warm]
	for c := obs.Class(0); c < obs.NumClasses; c++ {
		h := reg.Histogram("mobiquery_evaluate_seconds", `class="`+c.String()+`"`, "", 0, 0)
		i := 0
		if c == obs.ClassCorridor {
			i = 1
		}
		sum[i] += float64(h.Sum())
		n[i] += float64(h.Count())
	}
	return sum[1] / max(n[1], 1), sum[0] / max(n[0], 1)
}
