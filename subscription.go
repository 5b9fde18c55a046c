package mobiquery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/corridor"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/obs"
	"mobiquery/internal/prefetch"
	"mobiquery/internal/pyramid"
)

// Strategy selects how a subscription prefetches sensor data along the
// user's predicted motion (QuerySpec.Strategy). The zero value is on-demand
// sampling, exactly the behavior of a spec without a strategy.
type Strategy = prefetch.Strategy

// OnDemandStrategy samples the field as each period is collected — no
// prediction, no prefetching. The zero Strategy.
func OnDemandStrategy() Strategy { return Strategy{} }

// JITStrategy prefetches just in time (the paper's contribution): each
// period's readings are staged at the predicted pickup point by dispatching
// its chain at the latest safe moment (equation 10), holding per-user
// storage at the equation-12 constant.
func JITStrategy() Strategy { return Strategy{Kind: prefetch.JIT} }

// GreedyStrategy prefetches eagerly, keeping chains dispatched `lookahead`
// periods ahead (equation 11 storage); readings are captured when the
// freshness window opens and held until their boundary. lookahead 0 selects
// the smallest window that still meets every equation-10 deadline —
// a positive lookahead below that minimum can never stage a period on
// time, leaving the subscription in permanent on-demand fallback with
// Warmup set (see Strategy.Lookahead).
func GreedyStrategy(lookahead int) Strategy {
	return Strategy{Kind: prefetch.Greedy, Lookahead: lookahead}
}

// ErrorModel bounds the location error of a subscription's predicted
// positions: a fixed Base (meters) plus Growth (meters per second) of
// prediction age. The corridor inflates every predicted query circle by
// the bound; an actual position escaping it is a mispredict.
type ErrorModel = corridor.ErrorModel

// GPSErrorModel returns the ErrorModel covering a GPS predictor with the
// given per-reading error radius, re-profiling threshold (0 selects the
// predictor default), maximum user speed, and sampling period — the safe
// corridor inflation for subscriptions driven by GPSPredictedMotion.
func GPSErrorModel(err, threshold, maxSpeed float64, sampling time.Duration) ErrorModel {
	return corridor.GPSErrorModel(err, threshold, maxSpeed, sampling)
}

// CorridorSpec configures spatial corridor prefetching (QuerySpec.Corridor):
// the service sweeps the subscription's predicted query area over the next
// Lookahead period boundaries into an error-inflated corridor of spatial-
// index cells and stages per-boundary node snapshots ahead of each
// boundary, so staged periods are evaluated from warm, contiguous buffers
// instead of cold index scans. Results are bit-identical either way — a
// snapshot is served only when it provably covers the user's actual query
// circle on an unchanged node index; anything else (including a mispredict,
// which also forces an immediate re-plan from ground truth) falls back to
// the cold scan.
type CorridorSpec struct {
	// Lookahead is how many period boundaries ahead the corridor stages.
	// Zero disables the corridor entirely — the exact pre-corridor
	// behavior. Requires a prefetching Strategy when positive.
	Lookahead int
	// ErrorModel bounds the prediction error the corridor absorbs. The
	// zero model trusts predictions exactly: any deviation of the actual
	// position from the predicted one is a mispredict. Subscriptions fed
	// by noisy predictors should use GPSErrorModel or a custom bound.
	ErrorModel ErrorModel
}

// QuerySpec is the streaming form of the paper's spatiotemporal query
// tuple: one aggregate over a circle around the mobile user, due every
// Period, computed from sufficiently fresh readings.
type QuerySpec struct {
	// Radius is Rq: the query area is a circle of this radius (m) centered
	// on the user's current position.
	Radius float64
	// Period is Tperiod: one result is due every Period, the kth at
	// subscription time + k*Period.
	Period time.Duration
	// Deadline is the slack after each period boundary before the result
	// counts as late. Zero is strict: a result evaluated any time after
	// its boundary is marked late.
	Deadline time.Duration
	// Freshness is Tfresh: readings older than this at the period boundary
	// are excluded from the result (they show up in
	// QueryResult.StaleNodes). Zero disables the window.
	Freshness time.Duration
	// Aggregate selects the aggregation function; zero selects Avg.
	Aggregate AggKind
	// Lifetime bounds the session: the subscription closes itself after
	// Lifetime/Period results. Zero streams until Close or context
	// cancellation.
	Lifetime time.Duration
	// Strategy selects predictive sampling along the user's motion
	// (JITStrategy, GreedyStrategy). The zero value keeps on-demand
	// sampling — exactly the pre-strategy behavior.
	Strategy Strategy
	// Corridor enables spatial corridor prefetching on top of the
	// Strategy's temporal staging. The zero value disables it.
	Corridor CorridorSpec
	// Window widens each result to an aggregate over the last Window query
	// periods: the kth result merges the Window most recent single-period
	// evaluations (each taken at its own boundary position, staleness aged
	// to the current deadline), with QueryResult.WindowPeriods reporting
	// how many periods actually contributed (fewer during the first
	// Window-1 results). 0 or 1 keeps ordinary single-period results.
	// Requires the on-demand Strategy: a windowed result spans boundaries,
	// which the per-period prefetch ledger cannot attribute.
	Window int
	// Trace is an optional caller-minted trace context. When non-zero,
	// every period of the subscription carries a span identified by
	// (Trace, MintSpanID(Trace, k)); completed spans are attached to
	// QueryResult.Trace so a network front-end can echo them to the
	// client. Zero (the default) leaves the subscription untraced — the
	// per-period cost of the machinery is then a single comparison.
	Trace TraceID
}

// Validate reports specification errors, including the paper's feasibility
// assumption Tfresh <= Tperiod — relaxed for prefetching strategies, whose
// equation-10 hold windows let a held reading legitimately outlive a
// period.
func (q QuerySpec) Validate() error {
	if err := q.Strategy.Validate(); err != nil {
		return err
	}
	switch {
	case !(q.Radius > 0) || math.IsInf(q.Radius, 1):
		return fmt.Errorf("mobiquery: query radius %v must be positive and finite", q.Radius)
	case q.Period <= 0:
		return fmt.Errorf("mobiquery: query period %v must be positive", q.Period)
	case q.Deadline < 0:
		return fmt.Errorf("mobiquery: deadline slack %v must be non-negative", q.Deadline)
	case q.Freshness < 0:
		return fmt.Errorf("mobiquery: freshness %v must be non-negative", q.Freshness)
	case q.Freshness > q.Period && !q.Strategy.Prefetching():
		return fmt.Errorf("mobiquery: freshness %v must not exceed period %v for on-demand sampling (a prefetching Strategy may hold readings across periods)", q.Freshness, q.Period)
	case q.Aggregate != 0 && !q.Aggregate.Valid():
		return fmt.Errorf("mobiquery: invalid aggregation %v", q.Aggregate)
	case q.Lifetime < 0:
		return fmt.Errorf("mobiquery: lifetime %v must be non-negative", q.Lifetime)
	case q.Lifetime != 0 && q.Lifetime < q.Period:
		return fmt.Errorf("mobiquery: lifetime %v shorter than one period %v", q.Lifetime, q.Period)
	case q.Corridor.Lookahead < 0:
		return fmt.Errorf("mobiquery: corridor lookahead %d must be non-negative", q.Corridor.Lookahead)
	case q.Corridor.Lookahead > 0 && !q.Strategy.Prefetching():
		return fmt.Errorf("mobiquery: corridor prefetching needs a prefetching Strategy (JITStrategy/GreedyStrategy)")
	case q.Window < 0:
		return fmt.Errorf("mobiquery: window %d must be non-negative", q.Window)
	case q.Window > 1 && q.Strategy.Prefetching():
		return fmt.Errorf("mobiquery: windowed aggregation (Window %d) requires the on-demand Strategy", q.Window)
	}
	if err := q.Corridor.ErrorModel.Validate(); err != nil {
		return err
	}
	return nil
}

// MotionSource supplies a subscriber's position over the service's virtual
// time. t is measured from the subscription instant. Implementations must
// be pure: the service may query any instant, in any order.
type MotionSource interface {
	PositionAt(t time.Duration) Point
}

// staticSource pins the user to one position.
type staticSource struct{ p Point }

func (s staticSource) PositionAt(time.Duration) Point { return s.p }

// StaticPosition returns a MotionSource for a user standing at p. Combine
// with Subscription.UpdateWaypoint to move the user by explicit updates.
func StaticPosition(p Point) MotionSource { return staticSource{p: p} }

// linearSource moves the user on a straight line.
type linearSource struct {
	start Point
	v     geom.Vec
}

func (l linearSource) PositionAt(t time.Duration) Point {
	return l.start.Add(l.v.Scale(t.Seconds()))
}

// LinearMotion returns a MotionSource for a user walking a straight line
// from start at (vx, vy) m/s.
func LinearMotion(start Point, vx, vy float64) MotionSource {
	return linearSource{start: start, v: geom.V(vx, vy)}
}

// ProfileSource is a MotionSource that also supplies its own stream of
// predicted motion profiles — typically a history-based predictor whose
// predictions carry location error, as opposed to the exact profiles the
// service otherwise synthesizes from the source's positions. A prefetching
// subscription backed by a ProfileSource plans (and, with a Corridor,
// stages) from the predictions while its actual positions keep following
// PositionAt — the paper's Section 6.3 location-error setting, live.
//
// The interface is sealed: construct implementations with
// GPSPredictedMotion.
type ProfileSource interface {
	MotionSource
	// predictedProfiles returns the profile stream in delivery order, all
	// times relative to the subscription instant.
	predictedProfiles() []mobility.TimedProfile
}

// CourseConfig describes a ground-truth random-direction course (the
// paper's evaluation mobility): the user starts at Start, draws a fresh
// heading and a speed in [SpeedMin, SpeedMax] every ChangeInterval, and
// reflects off the RegionSide × RegionSide boundary for Duration.
type CourseConfig struct {
	Seed           int64
	RegionSide     float64
	Start          Point
	SpeedMin       float64
	SpeedMax       float64
	ChangeInterval time.Duration
	Duration       time.Duration
}

// GPSConfig describes the noisy history-based predictor laid over a
// course: a GPS reading every Sampling with up to Error meters of uniform
// disk error, re-profiling (a fresh straight-line prediction) whenever a
// reading diverges from the active prediction by more than Threshold
// (zero selects a default above the noise floor).
type GPSConfig struct {
	Seed      int64
	Sampling  time.Duration
	Error     float64
	Threshold float64
}

// gpsMotion is the ProfileSource behind GPSPredictedMotion.
type gpsMotion struct {
	course   mobility.Course
	profiles []mobility.TimedProfile
}

func (g *gpsMotion) PositionAt(t time.Duration) Point { return g.course.PosAt(t) }

func (g *gpsMotion) predictedProfiles() []mobility.TimedProfile { return g.profiles }

// GPSPredictedMotion returns a ProfileSource whose ground truth follows a
// random-direction course while its predictions come from a noisy GPS
// predictor — actual positions and predicted profiles deliberately
// disagree, within gps.Error and the predictor's threshold. Pair it with a
// prefetching Strategy and a Corridor whose ErrorModel covers the
// predictor (see GPSErrorModel) to exercise spatial prefetching under
// location error. The source is deterministic in its seeds.
func GPSPredictedMotion(course CourseConfig, gps GPSConfig) (ProfileSource, error) {
	spec := mobility.CourseSpec{
		Region:         geom.Square(course.RegionSide),
		Start:          course.Start,
		SpeedMin:       course.SpeedMin,
		SpeedMax:       course.SpeedMax,
		ChangeInterval: course.ChangeInterval,
		Duration:       course.Duration,
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if gps.Sampling <= 0 {
		return nil, fmt.Errorf("mobiquery: GPS sampling period %v must be positive", gps.Sampling)
	}
	if gps.Error < 0 {
		return nil, fmt.Errorf("mobiquery: GPS error %v must be non-negative", gps.Error)
	}
	c := mobility.NewRandomCourse(spec, rand.New(rand.NewSource(course.Seed)))
	predictor := mobility.GPSPredictor{
		Course:    c,
		Sampling:  gps.Sampling,
		Err:       gps.Error,
		Threshold: gps.Threshold,
		RNG:       rand.New(rand.NewSource(gps.Seed)),
	}
	return &gpsMotion{course: c, profiles: predictor.Profiles()}, nil
}

// shiftProfile translates a profile's course-relative times onto the
// service clock: a subscription opened at t0 sees the course's instant x
// at virtual time t0+x.
func shiftProfile(p mobility.Profile, t0 time.Duration) mobility.Profile {
	if t0 == 0 {
		return p
	}
	wps := p.Path.Waypoints()
	for i := range wps {
		wps[i].T += t0
	}
	p.Path = mobility.NewTrajectory(wps)
	p.TS += t0
	p.Generated += t0
	return p
}

// bootstrapProfile is the prediction a profile-driven subscription plans
// from before its predictor's first delivery: the user is assumed to hold
// the position they subscribed at (the predictor needs a couple of
// readings before it can do better).
func bootstrapProfile(p Point, t0 time.Duration) mobility.Profile {
	return mobility.Profile{
		Path:      mobility.Stationary(p, t0),
		TS:        t0,
		Generated: t0,
		Version:   0,
	}
}

// profileFromSource synthesizes the motion profile a prefetch planner works
// from at Subscribe time: positions sampled one period apart anchor a
// piecewise-linear predicted path, which extrapolates past its last sample
// with the final leg's velocity (so linear sources are predicted exactly,
// forever). The profile is generated the instant it takes effect (Ta = 0),
// so equation 16 charges the full warmup interval — the cost of joining
// with no advance notice.
func profileFromSource(src MotionSource, t0, period time.Duration) mobility.Profile {
	const legs = 8
	wps := make([]mobility.Waypoint, 0, legs+1)
	for i := 0; i <= legs; i++ {
		rel := time.Duration(i) * period
		wps = append(wps, mobility.Waypoint{T: t0 + rel, P: src.PositionAt(rel)})
	}
	return mobility.Profile{
		Path:      mobility.NewTrajectory(wps),
		TS:        t0,
		Generated: t0,
		Version:   1,
		// Validity 0: the prediction covers every future boundary.
	}
}

// waypointProfile builds the replacement profile after a ground-truth
// waypoint update: a straight line from the reported position at the
// velocity estimated from the previous update (or, lacking one, from the
// original motion source's local direction).
func waypointProfile(p Point, prev *Point, prevAt time.Duration, src MotionSource, t0, now, period time.Duration) mobility.Profile {
	var vel geom.Vec
	if prev != nil && now > prevAt {
		vel = p.Sub(*prev).Scale(1 / (now - prevAt).Seconds())
	} else {
		rel := now - t0
		vel = src.PositionAt(rel + period).Sub(src.PositionAt(rel)).Scale(1 / period.Seconds())
	}
	return mobility.Profile{
		Path:      mobility.LinearPath(p, vel, now, now+period),
		TS:        now,
		Generated: now,
		Version:   1,
	}
}

// SubscriptionStats summarizes a subscription's temporal ledger.
type SubscriptionStats struct {
	// Delivered counts results handed to the Results channel; Dropped
	// those discarded because the subscriber's buffer was full; Late those
	// delivered past their deadline slack.
	Delivered int
	Dropped   int
	Late      int
	// NextPeriod is the 1-based index of the next period due.
	NextPeriod int
}

// Subscription is one mobile user's live query session. Results arrive on
// the Results channel, one per query period; the channel is closed when
// the subscription ends (Close, context cancellation, service Close, or
// the spec's Lifetime running out).
type Subscription struct {
	svc  *Service
	id   uint32
	spec QuerySpec
	src  MotionSource
	t0   time.Duration
	agg  AggKind

	results chan QueryResult
	done    chan struct{} // closed with the subscription; wakes watchers

	// planner is the prefetch plan driving this subscription's predictive
	// sampling; nil for on-demand specs. Installed once at Subscribe (the
	// planner itself is concurrency-safe and re-planned in place).
	planner *prefetch.Planner
	// corridor is the spatial corridor cache staging node snapshots along
	// the predicted path; nil unless the spec asked for one. Like the
	// planner it is installed once and mutated in place.
	corridor *corridor.Cache
	// pyramid is the aggregate tile pyramid this subscription's boundary
	// class shares; nil when the spec is prefetching or the query area is
	// too small to benefit. Installed once at Subscribe.
	pyramid *pyramid.Pyramid

	// trace is the fixed-depth ring of recent period lifecycle spans
	// (TraceSpans); nil when the service was opened with WithTraceDepth(0).
	// Allocated once at Subscribe so the Advance path never does.
	// lastArmedNS is the wall time this subscription's schedule entry was
	// last re-armed — the end of the previous period's evaluation, or the
	// Subscribe instant — giving each span its armed→popped scheduler wait.
	// Written only from collectDue (serialized per subscription) and
	// Subscribe (before the subscription is visible to Advance).
	trace       *obs.TraceRing
	lastArmedNS int64

	// profiles is the predicted-profile stream of a ProfileSource-backed
	// subscription (absolute service times), with nextProfile the first
	// undelivered index; lastEvalPos/lastEvalAt remember the previous
	// boundary's ground-truth position for mispredict re-plan velocity.
	// All four are touched only from collectDue, which Advance serializes
	// per subscription.
	profiles    []mobility.TimedProfile
	nextProfile int
	lastEvalPos Point
	lastEvalAt  time.Duration
	haveEval    bool

	// mu guards the mutable session state. It is per-subscription so one
	// user's waypoint updates, stats reads, and deliveries never contend
	// with another's, and none of them block the service registry lock.
	mu       sync.Mutex
	manual   *Point // set by UpdateWaypoint; overrides src from then on
	manualAt time.Duration
	closed   bool
	stats    SubscriptionStats
}

// pendingResult is one evaluated period awaiting delivery (or, with
// expire set, a subscription whose spec Lifetime ran out at due). Workers
// produce them in parallel; Advance merges and delivers them serially in
// (due, id) order.
type pendingResult struct {
	sub    *Subscription
	due    time.Duration
	result QueryResult
	expire bool
	// span is the period's lifecycle record so far (armed → popped →
	// evaluated); deliver finishes it with the outcome stamp and hands it
	// to the subscription's trace ring.
	span obs.PeriodSpan
}

// Subscribe registers a streaming query for a mobile user whose position
// follows src, starting periods at the service's current virtual time. The
// user joins a live service: existing subscribers are unaffected. The
// subscription ends when ctx is canceled, Close is called, the service
// closes, or the spec's Lifetime elapses.
func (s *Service) Subscribe(ctx context.Context, spec QuerySpec, src MotionSource) (*Subscription, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("mobiquery: subscription needs a MotionSource")
	}
	agg := spec.Aggregate
	if agg == 0 {
		agg = Avg
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("mobiquery: service is closed")
	}
	if s.draining {
		return nil, fmt.Errorf("mobiquery: service is draining")
	}
	s.nextID++
	sub := &Subscription{
		svc:     s,
		id:      s.nextID,
		spec:    spec,
		src:     src,
		t0:      s.now,
		agg:     agg,
		results: make(chan QueryResult, s.opts.buffer),
		done:    make(chan struct{}),
		trace:   obs.NewTraceRing(s.opts.traceDepth),
	}
	sub.stats.NextPeriod = 1
	sub.lastArmedNS = time.Now().UnixNano()
	// The serve route is fixed here, once: planned (plus corridor when
	// asked), pyramid, or cold.
	var route core.Route
	if spec.Strategy.Prefetching() {
		// The initial prediction: for a ProfileSource, the predictor's own
		// stream (times shifted onto the service clock), bootstrapped from
		// a stationary guess until its first delivery; otherwise an exact
		// profile synthesized from the motion source.
		var prof mobility.Profile
		if ps, ok := src.(ProfileSource); ok {
			for _, tp := range ps.predictedProfiles() {
				sub.profiles = append(sub.profiles, mobility.TimedProfile{
					Deliver: tp.Deliver + s.now,
					Profile: shiftProfile(tp.Profile, s.now),
				})
			}
			prof = bootstrapProfile(src.PositionAt(0), s.now)
			for sub.nextProfile < len(sub.profiles) && sub.profiles[sub.nextProfile].Deliver <= s.now {
				prof = sub.profiles[sub.nextProfile].Profile
				sub.nextProfile++
			}
		} else {
			prof = profileFromSource(src, s.now, spec.Period)
		}
		planner, err := prefetch.NewPlanner(prefetch.Config{
			Strategy: spec.Strategy,
			Radius:   spec.Radius,
			Period:   spec.Period,
			Deadline: spec.Deadline,
			Fresh:    spec.Freshness,
			Sleep:    s.cfg.SamplePeriod,
			T0:       s.now,
		}, prof)
		if err != nil {
			return nil, err
		}
		sub.planner, route.Plan = planner, planner
		if spec.Corridor.Lookahead > 0 {
			cache, err := corridor.NewCache(corridor.Config{
				Lookahead: spec.Corridor.Lookahead,
				Model:     spec.Corridor.ErrorModel,
				Radius:    spec.Radius,
				Period:    spec.Period,
				T0:        s.now,
			}, s.engine.Index())
			if err != nil {
				return nil, err
			}
			cache.SetProfile(prof, s.now)
			sub.corridor, route.Warmer = cache, cache
		}
	} else if spec.Window > 1 || spec.Radius >= pyramidMinRadiusCells*s.cell {
		// On-demand subscriptions with large areas (or lookback windows,
		// whose every result re-folds Window boundaries) aggregate through
		// the shared tile pyramid of their boundary class. Small areas keep
		// the flat scan: a handful of cells beats an epoch ingest.
		p, perr := s.pyramidFor(spec.Period, spec.Freshness)
		if perr != nil {
			return nil, perr
		}
		sub.pyramid, route.Index = p, p
	}
	err := s.engine.RegisterTemporalE(sub.id, spec.Radius, src.PositionAt(0),
		core.TemporalSpec{Period: spec.Period, Deadline: spec.Deadline, Fresh: spec.Freshness, Window: spec.Window}, s.now, route)
	if err != nil {
		return nil, err
	}
	s.subs[sub.id] = sub
	s.totOpened.Add(1)

	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sub.Close()
			case <-sub.done:
				// Closed some other way (Close, Lifetime, service
				// shutdown); don't outlive the subscription.
			}
		}()
	}
	return sub, nil
}

// ID returns the subscription's query id within the service.
func (sub *Subscription) ID() uint32 { return sub.id }

// Results is the stream of per-period query results. It is closed when
// the subscription ends; a subscriber that stops draining loses newest
// results (counted in Stats().Dropped) but never stalls the service.
func (sub *Subscription) Results() <-chan QueryResult { return sub.results }

// Spec returns the subscription's query specification.
func (sub *Subscription) Spec() QuerySpec { return sub.spec }

// UpdateWaypoint reports the user's actual position mid-run, overriding
// the MotionSource from this moment on (the source is a prediction; the
// waypoint is ground truth). Subsequent periods are evaluated at the
// updated position until the next update. A prefetching subscription
// re-plans from the reported position: chains are re-dispatched along the
// corrected path and the equation-16 warmup clock restarts, so the next
// few results carry Warmup=true — the paper's cost of a motion change.
func (sub *Subscription) UpdateWaypoint(p Point) error {
	now := sub.svc.Now()
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return fmt.Errorf("mobiquery: subscription %d is closed", sub.id)
	}
	prev, prevAt := sub.manual, sub.manualAt
	sub.manual = &p
	sub.manualAt = now
	sub.mu.Unlock()
	sub.svc.engine.UpdateWaypoint(sub.id, p)
	if sub.planner != nil {
		prof := waypointProfile(p, prev, prevAt, sub.src, sub.t0, now, sub.spec.Period)
		sub.planner.Replan(prof, now)
		if sub.corridor != nil {
			sub.corridor.SetProfile(prof, now)
		}
	}
	return nil
}

// PrefetchStats returns the prefetch planner's ledger, including the
// corridor cache's hit/mispredict counters when the spec asked for a
// corridor; ok is false for on-demand subscriptions, which have no
// planner.
func (sub *Subscription) PrefetchStats() (PrefetchStats, bool) {
	if sub.planner == nil {
		return PrefetchStats{}, false
	}
	st := sub.planner.Stats()
	if sub.corridor != nil {
		cs := sub.corridor.Stats()
		st.CorridorHits = cs.Hits
		st.CorridorMisses = cs.Misses
		st.CorridorMispredicts = cs.Mispredicts
		st.CorridorStaged = cs.StagedBoundaries
	}
	return st, true
}

// Stats returns the subscription's delivery ledger so far.
func (sub *Subscription) Stats() SubscriptionStats {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.stats
}

// Close ends the subscription: the user leaves the service, the engine
// frees the query, and the Results channel is closed after any buffered
// results. Other subscribers are unaffected. Close is idempotent.
func (sub *Subscription) Close() error {
	sub.svc.removeSub(sub)
	return nil
}

// close tears the subscription down: marks it closed, ends the result
// stream, and frees the engine query. Idempotent; callers remove it from
// the service registry separately (removeSub, service Close).
func (sub *Subscription) close() {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	sub.closed = true
	// Closed under mu: deliver sends under the same lock, so a racing
	// Advance can never write to a closed channel.
	close(sub.results)
	close(sub.done)
	sub.mu.Unlock()
	sub.svc.totClosed.Add(1)
	sub.svc.engine.Deregister(sub.id)
}

// collectDue evaluates every period of this subscription due by virtual
// time now, appending one pendingResult per period (and an expire marker
// when the spec's Lifetime runs out). It runs on a dispatch worker and
// touches only this subscription's engine query and session state, so
// distinct subscriptions evaluate in parallel; delivery happens later, in
// the merged serial phase. Schedule re-arms go into the worker's private
// rb — Advance flushes each worker's batch once per stripe after the
// dispatch, so parallel workers never contend on the schedule locks.
// poppedNS is the wall time the Advance step's PopDue completed — the
// popped stamp shared by the first span of each subscription in the
// batch; catch-up periods armed mid-drain stamp their own arming instant
// instead, keeping every span chain monotone.
func (sub *Subscription) collectDue(now time.Duration, poppedNS int64, buf []pendingResult, rb *core.RearmBatch) []pendingResult {
	eng := sub.svc.engine
	for {
		sub.mu.Lock()
		closed, manual := sub.closed, sub.manual
		sub.mu.Unlock()
		if closed {
			return buf
		}
		_, due, ok := eng.NextDue(sub.id)
		if !ok {
			return buf
		}
		// The lifetime check precedes the due check: it depends only on
		// the period index, so a session whose clock stops exactly at
		// t0+Lifetime still closes its stream after the final result.
		if sub.spec.Lifetime > 0 && due > sub.t0+sub.spec.Lifetime {
			return append(buf, pendingResult{sub: sub, due: due, expire: true})
		}
		if due > now {
			return buf
		}
		// Predicted profiles delivered by this boundary govern its plan
		// and corridor: a fresher prediction re-plans (and re-sweeps)
		// before the boundary is evaluated.
		sub.pumpProfiles(due)
		// Ingest the boundary's epoch before evaluating against it. Every
		// subscription of the class calls this; the first arrivals build
		// the epoch cooperatively, the rest return immediately.
		if sub.pyramid != nil {
			sub.pyramid.EnsureEpoch(due)
		}
		// The waypoint is evaluated as of the period boundary, so coarse
		// clock steps still see the position the user held at the
		// deadline.
		var pos Point
		if manual != nil {
			pos = *manual
		} else {
			pos = sub.src.PositionAt(due - sub.t0)
		}
		eng.UpdateWaypoint(sub.id, pos)
		evalStartNS := time.Now().UnixNano()
		wr, ok := eng.EvaluateDueBatch(sub.id, now, rb)
		evalEndNS := time.Now().UnixNano()
		if !ok {
			return buf
		}
		// The serve classes partition evaluated periods, so the per-class
		// counters sum to the delivery ledger (delivered + dropped), which
		// the loopback reconciliation test pins.
		so := sub.svc.obs
		so.classCount[wr.Class].Inc()
		so.classEval[wr.Class].Observe(evalEndNS - evalStartNS)
		if sub.planner != nil {
			sub.planner.NoteServed(wr.Prefetched)
		}
		if sub.corridor != nil {
			// An actual position outside the corridor already cost this
			// period its warm serve and staging credit (the evaluation ran
			// cold with honest accounting); re-plan immediately from the
			// observed ground truth so the next boundaries re-stage along
			// the corrected path.
			if mpAt, mpPos, ok := sub.corridor.TakeMispredict(); ok {
				var prevPos *Point
				if sub.haveEval {
					prevPos = &sub.lastEvalPos
				}
				prof := waypointProfile(mpPos, prevPos, sub.lastEvalAt, sub.src, sub.t0, mpAt, sub.spec.Period)
				sub.planner.Replan(prof, mpAt)
				sub.corridor.SetProfile(prof, mpAt)
			}
			// Top the staged window up relative to the boundary just
			// collected, so boundary k+1's snapshot is cut ahead of its
			// due time whatever the tick coarseness.
			sub.corridor.StageThrough(wr.Due)
		}
		sub.lastEvalPos, sub.lastEvalAt, sub.haveEval = pos, wr.Due, true
		// A traced subscription's span carries its wire identity: the
		// client-minted trace id plus the deterministic per-period span id
		// both tiers can recompute (see obs.MintSpanID).
		var sid obs.SpanID
		if sub.spec.Trace != 0 {
			sid = obs.MintSpanID(sub.spec.Trace, wr.K)
		}
		// A catch-up period (armed by the previous iteration of this very
		// drain, after the batch pop) never went back to the scheduler: its
		// logical pop instant is its armed instant, not the batch pop stamp
		// taken before the period existed — keeping armed <= popped and its
		// scheduler-wait segment honestly zero.
		popNS := poppedNS
		if sub.lastArmedNS > popNS {
			popNS = sub.lastArmedNS
		}
		buf = append(buf, pendingResult{
			sub: sub, due: wr.Due, result: sub.makeResult(wr),
			span: obs.PeriodSpan{
				Trace:       sub.spec.Trace,
				Span:        sid,
				K:           wr.K,
				Due:         wr.Due,
				ArmedNS:     sub.lastArmedNS,
				PoppedNS:    popNS,
				EvalStartNS: evalStartNS,
				EvalEndNS:   evalEndNS,
				Class:       wr.Class,
				Late:        wr.Late,
			},
		})
		// The evaluation just re-armed the schedule at the next boundary;
		// that instant is the next span's armed stamp.
		sub.lastArmedNS = evalEndNS
	}
}

// pumpProfiles installs every predicted profile delivered by virtual time
// upTo into the planner (and corridor, when present), in delivery order.
// Only ProfileSource-backed subscriptions have a stream; others no-op.
// Runs on the collectDue path, which Advance serializes per subscription.
func (sub *Subscription) pumpProfiles(upTo time.Duration) {
	for sub.nextProfile < len(sub.profiles) && sub.profiles[sub.nextProfile].Deliver <= upTo {
		tp := sub.profiles[sub.nextProfile]
		sub.nextProfile++
		sub.planner.Replan(tp.Profile, tp.Deliver)
		if sub.corridor != nil {
			sub.corridor.SetProfile(tp.Profile, tp.Deliver)
		}
	}
}

// makeResult converts one engine window evaluation into the public
// per-period result.
func (sub *Subscription) makeResult(wr core.WindowResult) QueryResult {
	qr := QueryResult{
		K:               wr.K,
		Deadline:        wr.Due,
		Received:        true,
		OnTime:          !wr.Late,
		Value:           wr.Data.Value(sub.agg),
		Contributors:    wr.Data.Count,
		AreaNodes:       wr.AreaNodes,
		EvaluatedAt:     wr.EvaluatedAt,
		Lateness:        wr.Lateness,
		StaleNodes:      wr.StaleNodes,
		MaxStaleness:    wr.MaxStaleness,
		Warmup:          wr.Warmup,
		PrefetchedNodes: wr.Prefetched,
		CorridorHit:     wr.Class == obs.ClassCorridor,
		PyramidHit:      wr.Class == obs.ClassPyramid,
		WindowPeriods:   wr.WindowPeriods,
	}
	if wr.AreaNodes > 0 {
		qr.Fidelity = float64(wr.Data.Count) / float64(wr.AreaNodes)
	} else {
		qr.Fidelity = 1 // empty area: vacuously perfect
	}
	qr.Success = qr.OnTime && qr.Fidelity >= SuccessThreshold
	return qr
}

// deliver hands one evaluated period to the subscriber, keeping the
// drop-vs-deliver ledger: when the buffer is full the result is discarded
// and counted in Stats().Dropped rather than stalling the service. span is
// the period's lifecycle record; deliver completes it (delivery stamp and
// outcome), records it in the subscription's trace ring, publishes it to
// the service span firehose, and — for a traced subscription — attaches a
// copy to the result so the network front-end can echo it to the client.
func (sub *Subscription) deliver(r *QueryResult, span *obs.PeriodSpan) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		// The period was evaluated but the subscription closed mid-tick:
		// the result has nowhere to go, so count it against the service
		// drop ledger — the per-class evaluated counters were already
		// bumped, and they must keep partitioning delivered + dropped.
		sub.svc.totDropped.Add(1)
		return
	}
	sub.stats.NextPeriod = r.K + 1
	if !r.OnTime {
		sub.stats.Late++
		sub.svc.totLate.Add(1)
	}
	// The delivery stamp precedes the channel send so a traced result's
	// echoed span already carries it; the heap copy is per traced period —
	// untraced subscriptions keep the allocation-free path.
	span.DeliveredNS = time.Now().UnixNano()
	span.Outcome = obs.OutcomeDelivered
	if span.Trace != 0 {
		sp := new(obs.PeriodSpan)
		*sp = *span
		r.Trace = sp
	}
	select {
	case sub.results <- *r:
		sub.stats.Delivered++
		sub.svc.totDelivered.Add(1)
	default:
		span.Outcome = obs.OutcomeDropped
		sub.stats.Dropped++
		sub.svc.totDropped.Add(1)
	}
	sub.trace.Record(span)
	sub.svc.spans.Publish(span)
}

// TraceSpans appends the subscription's recent period lifecycle spans to
// buf, oldest first, and returns the result: one span per evaluated period
// still in the trace ring, stamped armed → popped → evaluated →
// delivered/dropped with its serve class. The ring keeps the last
// WithTraceDepth spans (default 16); with tracing disabled it is always
// empty. Safe for concurrent use with a running service.
func (sub *Subscription) TraceSpans(buf []PeriodSpan) []PeriodSpan {
	return sub.trace.Snapshot(buf)
}
