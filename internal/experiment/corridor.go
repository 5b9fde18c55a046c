package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// CorridorConfig describes the corridor-comparison scenario: the same
// turning mobile-user population and sleepy sensor field evaluated five
// ways — on demand, just-in-time prefetching from exact per-leg motion
// profiles, JIT from a noisy GPS predictor's profiles, and both profile
// modes again with the spatial corridor cache staging node snapshots along
// the predicted path. It measures what the corridor buys (warm staged
// evaluations instead of cold index scans) and what prediction error costs
// (mispredicts, late periods), on top of PR 4's timing-only planner.
type CorridorConfig struct {
	Seed int64

	// Nodes sensors over a RegionSide × RegionSide square, refreshing every
	// SamplePeriod, out of phase.
	Nodes        int
	RegionSide   float64
	SamplePeriod time.Duration

	// The shared query contract, as in the prefetch scenario.
	Radius   float64
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration

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

	// Shards and Workers size the engine (zero = defaults).
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation.
	Field field.Field
}

// DefaultCorridor returns the headline comparison: the prefetch scenario's
// 40-user/5k-node sleepy field, but with turning courses and a 2 s / 5 m
// GPS predictor feeding the planners.
func DefaultCorridor() CorridorConfig {
	return CorridorConfig{
		Seed:           1,
		Nodes:          5000,
		RegionSide:     2000,
		SamplePeriod:   3 * time.Second,
		Radius:         150,
		Period:         time.Second,
		Deadline:       100 * time.Millisecond,
		Fresh:          time.Second,
		Users:          40,
		SpeedMin:       1,
		SpeedMax:       5,
		ChangeInterval: 8 * time.Second,
		Duration:       30 * time.Second,
		Tick:           300 * time.Millisecond,
		GPSSampling:    2 * time.Second,
		GPSError:       5,
		Lookahead:      4,
		Field:          field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)},
	}
}

// Validate reports configuration errors.
func (c CorridorConfig) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Users <= 0:
		return fmt.Errorf("experiment: corridor Nodes and Users must be positive")
	case c.RegionSide <= 0 || c.Radius <= 0:
		return fmt.Errorf("experiment: corridor RegionSide and Radius must be positive")
	case c.SamplePeriod <= 0:
		return fmt.Errorf("experiment: corridor SamplePeriod must be positive")
	case c.Period <= 0 || c.Deadline < 0 || c.Fresh < 0:
		return fmt.Errorf("experiment: corridor Period must be positive, Deadline and Fresh non-negative")
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("experiment: corridor speed range [%v, %v] invalid", c.SpeedMin, c.SpeedMax)
	case c.ChangeInterval <= 0:
		return fmt.Errorf("experiment: corridor ChangeInterval must be positive")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("experiment: corridor Tick must be positive and Duration at least one Period")
	case c.GPSSampling <= 0 || c.GPSError < 0:
		return fmt.Errorf("experiment: corridor GPSSampling must be positive and GPSError non-negative")
	case c.Lookahead <= 0 || c.ErrorBound < 0:
		return fmt.Errorf("experiment: corridor Lookahead must be positive and ErrorBound non-negative")
	case c.Shards < 0 || c.Workers < 0:
		return fmt.Errorf("experiment: corridor Shards and Workers must be non-negative")
	case c.Field == nil:
		return fmt.Errorf("experiment: corridor Field must be set")
	}
	return nil
}

// noisyBound resolves the noisy arms' corridor inflation.
func (c CorridorConfig) noisyBound() float64 {
	if c.ErrorBound > 0 {
		return c.ErrorBound
	}
	return mobility.DefaultThreshold(c.GPSError) + 2*c.GPSError
}

// exactBound is the exact arms' inflation: per-leg exact profiles predict
// the course bit-for-bit away from partial-segment interpolation, so a few
// meters absorb float noise and the instant between a heading change and
// its profile delivery.
const exactBound = 2.0

// CorridorOutcome is one arm's ledger over the shared workload.
type CorridorOutcome struct {
	// Label names the arm; Strategy echoes the planner strategy (zero for
	// on-demand); Noisy and Corridor say which profile mode and whether
	// the spatial cache ran.
	Label    string
	Strategy prefetch.Strategy
	Noisy    bool
	Corridor bool

	// Evaluations counts delivered periods; Late those past the deadline
	// slack; WarmupPeriods those inside an equation-16 warmup interval.
	Evaluations   int
	Late          int
	WarmupPeriods int

	// StaleExclusions and PrefetchedReadings as in the prefetch scenario;
	// MeanStaleness averages each period's oldest contributor age.
	StaleExclusions    int
	PrefetchedReadings int
	MeanStaleness      time.Duration

	// StagedHits counts periods served warm from a corridor stage;
	// ColdEvaluations those served by the cold index scan (the two
	// partition Evaluations). Mispredicts counts boundaries whose actual
	// position escaped the corridor; Replans profile replacements
	// (predictor deliveries plus mispredict corrections).
	StagedHits      int
	ColdEvaluations int
	Mispredicts     int
	Replans         int

	// WarmEvalNs and ColdEvalNs are mean wall nanoseconds per warm and
	// cold evaluation — the corridor's evaluation-cost claim, measured.
	// Wall time: reported, never part of the digest.
	WarmEvalNs float64
	ColdEvalNs float64

	// Digest is an order-independent digest of every user's per-period
	// outcome values (not the warm/cold route, which must not change
	// them); identical configurations must agree on it regardless of
	// Shards and Workers, and a corridor arm must agree with its
	// corridor-less twin whenever no mispredict forced an extra re-plan.
	Digest uint64
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

// corridorUser is one user's precomputed ground truth and profile streams
// plus the per-pass accumulator.
type corridorUser struct {
	id     uint32
	course mobility.Course
	exact  []mobility.TimedProfile
	noisy  []mobility.TimedProfile

	planner *prefetch.Planner
	cache   *corridor.Cache
	stream  []mobility.TimedProfile
	nextP   int

	evals, late, warm, stale, prefetched int
	hits, cold, mispredicts              int
	stalenessSum                         time.Duration
	warmNs, coldNs                       int64
	digest                               uint64
}

// corridorArm names one pass.
type corridorArm struct {
	label    string
	strat    prefetch.Strategy
	noisy    bool
	corridor bool
}

func corridorArms() []corridorArm {
	jit := prefetch.Strategy{Kind: prefetch.JIT}
	return []corridorArm{
		{label: "on-demand"},
		{label: "jit/exact", strat: jit},
		{label: "jit/noisy", strat: jit, noisy: true},
		{label: "jit+corridor/exact", strat: jit, corridor: true},
		{label: "jit+corridor/noisy", strat: jit, noisy: true, corridor: true},
	}
}

// RunCorridor executes the comparison: one pass per arm over an identical
// field, sampling schedule, user population, and profile streams, each
// driven through the engine's temporal path with per-query planners and
// (for the corridor arms) per-query corridor caches, exactly as the
// session API wires them.
func RunCorridor(cfg CorridorConfig) (CorridorResult, error) {
	if err := cfg.Validate(); err != nil {
		return CorridorResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := geom.Square(cfg.RegionSide)

	nodePos := make([]geom.Point, cfg.Nodes)
	for i := range nodePos {
		nodePos[i] = region.UniformPoint(rng)
	}
	phase := make([]sim.Time, cfg.Nodes)
	for i := range phase {
		phase[i] = time.Duration(rng.Int63n(int64(cfg.SamplePeriod)))
	}

	// Ground truth and both profile streams are drawn serially up front —
	// per-user sub-seeds from the master stream — so every arm sees the
	// same workload and no pass order or dispatch interleaving can change
	// what a user does.
	inner := geom.NewRect(0.15*cfg.RegionSide, 0.15*cfg.RegionSide, 0.85*cfg.RegionSide, 0.85*cfg.RegionSide)
	users := make([]*corridorUser, cfg.Users)
	for i := range users {
		courseRNG := rand.New(rand.NewSource(rng.Int63()))
		gpsRNG := rand.New(rand.NewSource(rng.Int63()))
		course := mobility.NewRandomCourse(mobility.CourseSpec{
			Region:         region,
			Start:          inner.UniformPoint(courseRNG),
			SpeedMin:       cfg.SpeedMin,
			SpeedMax:       cfg.SpeedMax,
			ChangeInterval: cfg.ChangeInterval,
			Duration:       cfg.Duration,
		}, courseRNG)
		users[i] = &corridorUser{
			id:     uint32(i + 1),
			course: course,
			exact:  mobility.ExactProfiler{Course: course}.Profiles(),
			noisy: mobility.GPSPredictor{
				Course:   course,
				Sampling: cfg.GPSSampling,
				Err:      cfg.GPSError,
				RNG:      gpsRNG,
			}.Profiles(),
		}
	}

	res := CorridorResult{Config: cfg}
	start := time.Now()
	for _, arm := range corridorArms() {
		out, err := runCorridorPass(cfg, arm, region, nodePos, phase, users)
		if err != nil {
			return CorridorResult{}, err
		}
		res.Arms = append(res.Arms, out)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// pump installs every profile delivered by `upTo` into the user's planner
// and cache, mirroring the session layer's collectDue pump.
func (u *corridorUser) pump(upTo sim.Time) {
	for u.nextP < len(u.stream) && u.stream[u.nextP].Deliver <= upTo {
		tp := u.stream[u.nextP]
		u.nextP++
		u.planner.Replan(tp.Profile, tp.Deliver)
		if u.cache != nil {
			u.cache.SetProfile(tp.Profile, tp.Deliver)
		}
	}
}

// truthProfile is the ground-truth correction issued after a mispredict: a
// straight line from the user's actual position at their actual heading —
// what a waypoint report carries.
func (u *corridorUser) truthProfile(at sim.Time, period time.Duration) mobility.Profile {
	vel := u.course.VelAt(at)
	if vel.Len() == 0 {
		return mobility.Profile{Path: mobility.Stationary(u.course.PosAt(at), at), TS: at, Generated: at}
	}
	return mobility.Profile{
		Path:      mobility.LinearPath(u.course.PosAt(at), vel, at, at+period),
		TS:        at,
		Generated: at,
	}
}

// runCorridorPass runs one arm over the shared workload.
func runCorridorPass(cfg CorridorConfig, arm corridorArm, region geom.Rect,
	nodePos []geom.Point, phase []sim.Time, users []*corridorUser) (CorridorOutcome, error) {
	eng, err := core.NewQueryEngineE(region, cfg.Radius, cfg.Field, core.EngineConfig{
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
		Sampler: core.ScheduleSampler(cfg.SamplePeriod, func(id int32) sim.Time { return phase[id] }),
	})
	if err != nil {
		return CorridorOutcome{}, err
	}
	eng.Dispatch(len(nodePos), func(i int) {
		eng.UpsertNode(radio.NodeID(i), nodePos[i])
	})

	bound := exactBound
	if arm.noisy {
		bound = cfg.noisyBound()
	}
	spec := core.TemporalSpec{Period: cfg.Period, Deadline: cfg.Deadline, Fresh: cfg.Fresh}
	byID := make(map[uint32]*corridorUser, len(users))
	for _, u := range users {
		*u = corridorUser{id: u.id, course: u.course, exact: u.exact, noisy: u.noisy}
		byID[u.id] = u
		var route core.Route
		if arm.strat.Prefetching() {
			u.stream = u.exact
			if arm.noisy {
				u.stream = u.noisy
			}
			// Initial prediction: the last profile delivered by t=0, or a
			// stationary bootstrap until the predictor's first delivery —
			// exactly the session API's Subscribe behavior.
			prof := mobility.Profile{Path: mobility.Stationary(u.course.PosAt(0), 0)}
			for u.nextP < len(u.stream) && u.stream[u.nextP].Deliver <= 0 {
				prof = u.stream[u.nextP].Profile
				u.nextP++
			}
			u.planner, err = prefetch.NewPlanner(prefetch.Config{
				Strategy: arm.strat,
				Radius:   cfg.Radius,
				Period:   cfg.Period,
				Deadline: cfg.Deadline,
				Fresh:    cfg.Fresh,
				Sleep:    cfg.SamplePeriod,
			}, prof)
			if err != nil {
				return CorridorOutcome{}, err
			}
			route.Plan = u.planner
			if arm.corridor {
				u.cache, err = corridor.NewCache(corridor.Config{
					Lookahead: cfg.Lookahead,
					Model:     corridor.ErrorModel{Base: bound},
					Radius:    cfg.Radius,
					Period:    cfg.Period,
				}, eng.Index())
				if err != nil {
					return CorridorOutcome{}, err
				}
				u.cache.SetProfile(prof, 0)
				route.Warmer = u.cache
			}
		}
		if err := eng.RegisterTemporalE(u.id, cfg.Radius, u.course.PosAt(0), spec, 0, route); err != nil {
			return CorridorOutcome{}, err
		}
	}

	pump := newDuePump(eng, byID)
	for t := cfg.Tick; t <= cfg.Duration; t += cfg.Tick {
		// Each user's evaluation depends only on the shared field and
		// their own course, streams, plan, and cache — the worker fan-out
		// cannot change results.
		pump.tick(t, func(u *corridorUser, id uint32, nextDue sim.Time, rb *core.RearmBatch) bool {
			if u.planner != nil {
				u.pump(nextDue)
			}
			eng.UpdateWaypoint(id, u.course.PosAt(nextDue))
			evalStart := time.Now()
			wr, ok := eng.EvaluateDueBatch(id, t, rb)
			evalNs := time.Since(evalStart).Nanoseconds()
			if !ok {
				return false
			}
			u.evals++
			u.stale += wr.StaleNodes
			u.prefetched += wr.Prefetched
			u.stalenessSum += wr.MaxStaleness
			if wr.Late {
				u.late++
			}
			if wr.Warmup {
				u.warm++
			}
			if wr.Class == obs.ClassCorridor {
				u.hits++
				u.warmNs += evalNs
			} else {
				u.cold++
				u.coldNs += evalNs
			}
			if u.planner != nil {
				u.planner.NoteServed(wr.Prefetched)
			}
			if u.cache != nil {
				if mpAt, _, ok := u.cache.TakeMispredict(); ok {
					u.mispredicts++
					prof := u.truthProfile(mpAt, cfg.Period)
					u.planner.Replan(prof, mpAt)
					u.cache.SetProfile(prof, mpAt)
				}
				u.cache.StageThrough(wr.Due)
			}
			u.digest = u.digest*1099511628211 ^ uint64(wr.K)
			u.digest = u.digest*1099511628211 ^ math.Float64bits(wr.Data.Value(core.AggAvg))
			u.digest = u.digest*1099511628211 ^ uint64(wr.Lateness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.MaxStaleness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.Prefetched)
			if wr.Warmup {
				u.digest = u.digest*1099511628211 ^ 1
			}
			return true
		})
	}

	out := CorridorOutcome{Label: arm.label, Strategy: arm.strat, Noisy: arm.noisy, Corridor: arm.corridor}
	var stalenessSum time.Duration
	var warmNs, coldNs int64
	for _, u := range users {
		out.Evaluations += u.evals
		out.Late += u.late
		out.WarmupPeriods += u.warm
		out.StaleExclusions += u.stale
		out.PrefetchedReadings += u.prefetched
		out.StagedHits += u.hits
		out.ColdEvaluations += u.cold
		out.Mispredicts += u.mispredicts
		stalenessSum += u.stalenessSum
		warmNs += u.warmNs
		coldNs += u.coldNs
		if u.planner != nil {
			out.Replans += u.planner.Stats().Replans
		}
		out.Digest += (u.digest | 1) * uint64(u.id)
	}
	if out.Evaluations > 0 {
		out.MeanStaleness = stalenessSum / time.Duration(out.Evaluations)
	}
	if out.StagedHits > 0 {
		out.WarmEvalNs = float64(warmNs) / float64(out.StagedHits)
	}
	if out.ColdEvaluations > 0 {
		out.ColdEvalNs = float64(coldNs) / float64(out.ColdEvaluations)
	}
	return out, nil
}
