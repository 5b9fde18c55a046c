package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// PyramidConfig describes the aggregate-pyramid comparison: a population of
// mobile users running large-radius on-demand aggregate queries over a
// dense sensor field, evaluated twice with identical workloads — once by
// flat area scans, once with the hierarchical tile pyramid answering each
// boundary from covered coarse tiles plus a disk-tested fringe — and then
// both again with a lookback Window, whose every result merges the last
// Window boundaries. The pyramid arms must reproduce the flat arms' digests
// exactly; the ledger reports what the decomposition saved.
type PyramidConfig struct {
	Seed int64

	// Nodes sensors over a RegionSide × RegionSide square, refreshing every
	// SamplePeriod, out of phase.
	Nodes        int
	RegionSide   float64
	SamplePeriod time.Duration

	// The shared query contract. Radius is deliberately large: tile
	// decomposition pays off when the disk spans many index cells.
	Radius   float64
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration
	// Window is the lookback depth of the windowed arms (≥ 2).
	Window int

	// Users follow random-direction courses (speed in [SpeedMin,
	// SpeedMax], new heading every ChangeInterval) for Duration, evaluated
	// on a Tick clock misaligned with Period.
	Users          int
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
	Duration       time.Duration
	Tick           time.Duration

	// Shards and Workers size the engine (zero = defaults).
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation. The default is
	// QuantizedField, under which every partial sum is exactly
	// representable and the flat-vs-pyramid digest comparison is bitwise
	// rather than approximate.
	Field field.Field
}

// QuantizedField returns a deterministic position- and time-dependent field
// whose values are multiples of 1/64 with bounded magnitude. Sums of such
// values are exactly representable in float64, so float addition over them
// is associative: folds that differ only in grouping (the flat scan's
// id-major order vs the pyramid's tile-major order) produce bit-identical
// sums, which lets digest comparisons demand exact equality.
func QuantizedField() field.Field {
	return field.Func(func(p geom.Point, t sim.Time) float64 {
		q := math.Floor(p.X/16+p.Y/32) + math.Floor(float64(t/time.Millisecond)/256)
		return math.Mod(q, 512) / 64
	})
}

// DefaultPyramid returns the headline comparison: 30 users sweeping 400 m
// disks over a 4k-node field, 1 s periods, with 3-period lookback windows
// on the windowed arms.
func DefaultPyramid() PyramidConfig {
	return PyramidConfig{
		Seed:           1,
		Nodes:          4000,
		RegionSide:     2000,
		SamplePeriod:   3 * time.Second,
		Radius:         400,
		Period:         time.Second,
		Deadline:       100 * time.Millisecond,
		Fresh:          time.Second,
		Window:         3,
		Users:          30,
		SpeedMin:       1,
		SpeedMax:       5,
		ChangeInterval: 8 * time.Second,
		Duration:       30 * time.Second,
		Tick:           300 * time.Millisecond,
		Field:          QuantizedField(),
	}
}

// Validate reports configuration errors.
func (c PyramidConfig) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Users <= 0:
		return fmt.Errorf("experiment: pyramid Nodes and Users must be positive")
	case c.RegionSide <= 0 || c.Radius <= 0:
		return fmt.Errorf("experiment: pyramid RegionSide and Radius must be positive")
	case c.SamplePeriod <= 0:
		return fmt.Errorf("experiment: pyramid SamplePeriod must be positive")
	case c.Period <= 0 || c.Deadline < 0 || c.Fresh < 0:
		return fmt.Errorf("experiment: pyramid Period must be positive, Deadline and Fresh non-negative")
	case c.Window < 2:
		return fmt.Errorf("experiment: pyramid Window %d must be at least 2", c.Window)
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("experiment: pyramid speed range [%v, %v] invalid", c.SpeedMin, c.SpeedMax)
	case c.ChangeInterval <= 0:
		return fmt.Errorf("experiment: pyramid ChangeInterval must be positive")
	case c.Tick <= 0 || c.Duration < c.Period:
		return fmt.Errorf("experiment: pyramid Tick must be positive and Duration at least one Period")
	case c.Shards < 0 || c.Workers < 0:
		return fmt.Errorf("experiment: pyramid Shards and Workers must be non-negative")
	case c.Field == nil:
		return fmt.Errorf("experiment: pyramid Field must be set")
	}
	return nil
}

// PyramidOutcome is one arm's ledger over the shared workload.
type PyramidOutcome struct {
	// Label names the arm; Pyramid says whether the tile pyramid served it
	// and Window the lookback depth (0 for the single-period arms).
	Label   string
	Pyramid bool
	Window  int

	// Evaluations counts delivered periods; Late those past the deadline
	// slack; PyramidServes those answered by tile decomposition and
	// ColdEvaluations those by flat scans (the two partition Evaluations).
	Evaluations     int
	Late            int
	PyramidServes   int
	ColdEvaluations int

	// StaleExclusions totals in-area sensors excluded for freshness;
	// MeanStaleness averages each period's oldest contributor age.
	StaleExclusions int
	MeanStaleness   time.Duration

	// Index is the pyramid's own ledger (zero for the flat arms): epoch
	// ingests, node-visit accounting, decomposition sizes.
	Index pyramid.Stats

	// Digest is an order-independent digest of every user's per-period
	// outcome values (never the serve route). Identical configurations
	// must agree on it regardless of Shards and Workers, and each pyramid
	// arm must agree with its flat twin exactly — under the default
	// quantized field, bit for bit.
	Digest uint64
}

// PyramidResult is the four-arm comparison.
type PyramidResult struct {
	Config  PyramidConfig
	Arms    []PyramidOutcome
	Elapsed time.Duration
}

// Arm returns the outcome with the given label, by value.
func (r PyramidResult) Arm(label string) (PyramidOutcome, bool) {
	for _, a := range r.Arms {
		if a.Label == label {
			return a, true
		}
	}
	return PyramidOutcome{}, false
}

// pyramidUser is one user's precomputed ground truth plus the per-pass
// accumulator.
type pyramidUser struct {
	id     uint32
	course mobility.Course

	evals, late, hits, cold, stale int
	stalenessSum                   time.Duration
	digest                         uint64
}

// pyramidArm names one pass.
type pyramidArm struct {
	label   string
	pyramid bool
	window  int
}

func pyramidArms(window int) []pyramidArm {
	return []pyramidArm{
		{label: "flat"},
		{label: "pyramid", pyramid: true},
		{label: "flat/window", window: window},
		{label: "pyramid/window", pyramid: true, window: window},
	}
}

// RunPyramid executes the comparison: one pass per arm over an identical
// field, sampling schedule, and user population, each driven through the
// engine's temporal path; the pyramid arms additionally share one tile
// pyramid per pass, ingested cooperatively by the dispatch workers exactly
// as the session API drives it.
func RunPyramid(cfg PyramidConfig) (PyramidResult, error) {
	if err := cfg.Validate(); err != nil {
		return PyramidResult{}, err
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

	// Courses are drawn serially up front so every arm sees the same
	// workload whatever the pass order or dispatch interleaving.
	inner := geom.NewRect(0.15*cfg.RegionSide, 0.15*cfg.RegionSide, 0.85*cfg.RegionSide, 0.85*cfg.RegionSide)
	users := make([]*pyramidUser, cfg.Users)
	for i := range users {
		courseRNG := rand.New(rand.NewSource(rng.Int63()))
		users[i] = &pyramidUser{
			id: uint32(i + 1),
			course: mobility.NewRandomCourse(mobility.CourseSpec{
				Region:         region,
				Start:          inner.UniformPoint(courseRNG),
				SpeedMin:       cfg.SpeedMin,
				SpeedMax:       cfg.SpeedMax,
				ChangeInterval: cfg.ChangeInterval,
				Duration:       cfg.Duration,
			}, courseRNG),
		}
	}

	res := PyramidResult{Config: cfg}
	start := time.Now()
	for _, arm := range pyramidArms(cfg.Window) {
		out, err := runPyramidPass(cfg, arm, region, nodePos, phase, users)
		if err != nil {
			return PyramidResult{}, err
		}
		res.Arms = append(res.Arms, out)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runPyramidPass runs one arm over the shared workload.
func runPyramidPass(cfg PyramidConfig, arm pyramidArm, region geom.Rect,
	nodePos []geom.Point, phase []sim.Time, users []*pyramidUser) (PyramidOutcome, error) {
	base := core.ScheduleSampler(cfg.SamplePeriod, func(id int32) sim.Time { return phase[id] })
	// The index cell is an eighth of the query radius: the disk spans ~16
	// cells across, enough room for covered tiles at several levels.
	eng, err := core.NewQueryEngineE(region, cfg.Radius/8, cfg.Field,
		core.EngineConfig{Shards: cfg.Shards, Workers: cfg.Workers, Sampler: base})
	if err != nil {
		return PyramidOutcome{}, err
	}
	eng.Dispatch(len(nodePos), func(i int) {
		eng.UpsertNode(radio.NodeID(i), nodePos[i])
	})

	var pyr *pyramid.Pyramid
	var route core.Route
	if arm.pyramid {
		pyr, err = pyramid.New(eng.Index(), pyramid.Config{
			Fresh:  cfg.Fresh,
			Sample: base,
			Field:  cfg.Field,
		})
		if err != nil {
			return PyramidOutcome{}, err
		}
		route.Index = pyr
	}
	spec := core.TemporalSpec{Period: cfg.Period, Deadline: cfg.Deadline, Fresh: cfg.Fresh, Window: arm.window}
	byID := make(map[uint32]*pyramidUser, len(users))
	for _, u := range users {
		*u = pyramidUser{id: u.id, course: u.course}
		byID[u.id] = u
		if err := eng.RegisterTemporalE(u.id, cfg.Radius, u.course.PosAt(0), spec, 0, route); err != nil {
			return PyramidOutcome{}, err
		}
	}

	pump := newDuePump(eng, byID)
	for t := cfg.Tick; t <= cfg.Duration; t += cfg.Tick {
		// Each user's evaluation depends only on the shared field and their
		// own course; epoch ingest is cooperative, so the fan-out cannot
		// change results.
		pump.tick(t, func(u *pyramidUser, id uint32, nextDue sim.Time, rb *core.RearmBatch) bool {
			if pyr != nil {
				pyr.EnsureEpoch(nextDue)
			}
			eng.UpdateWaypoint(id, u.course.PosAt(nextDue))
			wr, ok := eng.EvaluateDueBatch(id, t, rb)
			if !ok {
				return false
			}
			u.evals++
			u.stale += wr.StaleNodes
			u.stalenessSum += wr.MaxStaleness
			if wr.Late {
				u.late++
			}
			if wr.Class == obs.ClassPyramid {
				u.hits++
			} else {
				u.cold++
			}
			// Every value a subscriber could observe — and never the
			// serve route, which must not change them.
			u.digest = u.digest*1099511628211 ^ uint64(wr.K)
			u.digest = u.digest*1099511628211 ^ uint64(wr.Data.Count)
			u.digest = u.digest*1099511628211 ^ math.Float64bits(wr.Data.Sum)
			u.digest = u.digest*1099511628211 ^ math.Float64bits(wr.Data.Min)
			u.digest = u.digest*1099511628211 ^ math.Float64bits(wr.Data.Max)
			u.digest = u.digest*1099511628211 ^ uint64(wr.AreaNodes)
			u.digest = u.digest*1099511628211 ^ uint64(wr.StaleNodes)
			u.digest = u.digest*1099511628211 ^ uint64(wr.MaxStaleness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.Lateness)
			u.digest = u.digest*1099511628211 ^ uint64(wr.WindowPeriods)
			return true
		})
	}

	out := PyramidOutcome{Label: arm.label, Pyramid: arm.pyramid, Window: arm.window}
	var stalenessSum time.Duration
	for _, u := range users {
		out.Evaluations += u.evals
		out.Late += u.late
		out.PyramidServes += u.hits
		out.ColdEvaluations += u.cold
		out.StaleExclusions += u.stale
		stalenessSum += u.stalenessSum
		out.Digest += (u.digest | 1) * uint64(u.id)
	}
	if out.Evaluations > 0 {
		out.MeanStaleness = stalenessSum / time.Duration(out.Evaluations)
	}
	if pyr != nil {
		out.Index = pyr.Stats()
	}
	return out, nil
}
