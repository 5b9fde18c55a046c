package core

import (
	"fmt"
	"slices"
	"time"

	"mobiquery/internal/geom"
	"mobiquery/internal/obs"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// Sampler reports when node id most recently refreshed its reading at or
// before virtual time at; ok is false when the node has not sampled yet.
// It models the duty-cycled sampling schedule of the sensor field: under
// PSM a node's reading is only as fresh as its last wake-up, which is what
// the paper's Tfresh window is measured against. A Sampler must be pure
// (same arguments, same answer) and safe for concurrent use.
type Sampler func(id int32, at sim.Time) (sim.Time, bool)

// PlannedPeriod is a prefetch plan's view of one period boundary, taken
// as one snapshot per evaluation (so a re-plan racing the evaluation
// cannot split sampling, staging and warmup across two plans).
type PlannedPeriod struct {
	// Staged reports a chain that met its forward deadline with readings
	// inside the hold-time ledger: a node inside the predicted pickup
	// circle (Pickup, Radius) then reads the value captured at Capture
	// instead of its sampling schedule, and the answer was ready at the
	// pickup point at Ready. Warmup marks a covered period whose chain
	// missed its forward deadline, which the evaluation serves on-demand.
	// Both are false for a boundary the plan does not cover.
	Staged  bool
	Warmup  bool
	Pickup  geom.Point
	Radius  float64
	Capture sim.Time
	Ready   sim.Time
}

// PrefetchPlan is the planned route's sampling and crediting oracle;
// internal/prefetch.Planner implements it. The evaluation asks it once per
// period: in-area nodes inside the pickup circle take the planned reading,
// and a period staged by its boundary is credited as evaluated there.
type PrefetchPlan interface {
	PlanPeriod(due sim.Time) PlannedPeriod
}

// CorridorWarmer is the spatial companion of PrefetchPlan: it holds
// pre-staged node snapshots along the user's predicted corridor;
// internal/corridor.Cache implements it. It rides only on a planned route
// (Route.Warmer).
type CorridorWarmer interface {
	// VisitStaged streams the staged nodes of the boundary due at `due`
	// that fall inside the actual query circle (center, radius), in
	// ascending id order, and reports true — or reports false without
	// calling fn when the boundary must be served by the cold radius scan
	// (nothing staged, the snapshot outdated by node churn, or the actual
	// position outside the staged corridor — a mispredict the warmer
	// records). A true return must enumerate exactly the nodes the cold
	// scan would: the engine serves the period from this buffer verbatim.
	VisitStaged(due sim.Time, center geom.Point, radius float64, fn func(id int32, pos geom.Point)) bool
}

// AggServe is an aggregate-index answer to one windowed evaluation: the
// whole-disk partial aggregate plus the accounting the cold scan would have
// produced. Data carries Count/Sum/Min/Max only — contributor ids are not
// enumerated (skipping that enumeration is the point of the index), so
// Data.Contribs is nil.
type AggServe struct {
	// Data is the fresh in-area aggregate (Contribs nil).
	Data Partial
	// AreaNodes counts every in-disk node; StaleNodes those excluded for
	// missing the freshness window — identical to the cold scan's counts.
	AreaNodes  int
	StaleNodes int
	// MaxStaleness is the age at the boundary of the oldest contributing
	// reading; Newest the timestamp of the newest one (meaningful only when
	// Data.Count > 0).
	MaxStaleness time.Duration
	Newest       sim.Time
}

// AggIndex is the pyramid route of a temporal query:
// internal/pyramid.Pyramid implements it. ServeWindow answers the whole
// freshness-windowed disk aggregate at a period boundary from precomputed
// multiresolution tile partials, or reports ok=false when it cannot prove
// the answer equals the cold radius scan — no epoch ingested for this
// boundary, a freshness window it was not built under, or the node index
// mutated since ingest — and the period is then scanned cold. A true
// return must account exactly the member set the cold scan would: same
// in-area nodes, same freshness decisions, same Count/Min/Max bit for bit
// (Sum is folded in the index's deterministic tile-major order, which
// differs from the cold scan's id-major order only by float-addition
// grouping).
type AggIndex interface {
	ServeWindow(due sim.Time, center geom.Point, radius float64, fresh time.Duration) (AggServe, bool)
}

// Route is a temporal query's serve route, fixed at registration. It has
// four legal shapes:
//
//   - cold (the zero Route): every period is a grid radius scan over the
//     engine's sampling schedule;
//   - planned (Plan): the scan serves plan-staged readings and credits
//     staged periods at their boundary;
//   - planned plus corridor (Plan and Warmer): a staged corridor snapshot
//     replaces the scan whenever the warmer can prove it exact;
//   - pyramid (Index): the aggregate index answers the whole disk, with the
//     cold scan as its fallback.
//
// RegisterTemporalE rejects every other combination.
type Route struct {
	Plan   PrefetchPlan
	Warmer CorridorWarmer
	Index  AggIndex
}

func (r Route) validate() error {
	switch {
	case r.Warmer != nil && r.Plan == nil:
		return fmt.Errorf("core: a corridor warmer rides on a prefetch plan")
	case r.Index != nil && (r.Plan != nil || r.Warmer != nil):
		return fmt.Errorf("core: an aggregate index serves alone, without a plan or warmer")
	}
	return nil
}

// TemporalSpec is the temporal contract of a streaming query: one result
// per Period, due Deadline after each period boundary, computed from
// readings no staler than Fresh at the boundary. It is the engine-level
// counterpart of the paper's (Tperiod, Td, Tfresh) triple for queries
// evaluated through the instantaneous engine rather than the radio stack.
type TemporalSpec struct {
	// Period is Tperiod: one result is due every Period.
	Period time.Duration
	// Deadline is the slack after a period boundary before the result
	// counts as late. Zero means strict: any evaluation after the boundary
	// is late.
	Deadline time.Duration
	// Fresh is Tfresh: readings older than this at the period boundary are
	// excluded from the result. Zero disables the window (any reading
	// qualifies, however old).
	Fresh time.Duration
	// Window is the number of consecutive period boundaries each result
	// aggregates over: every delivered result merges the last Window
	// periods' evaluations (each at its own boundary position), oldest
	// first. 0 or 1 keeps plain per-period results.
	Window int
}

// Validate reports specification errors.
func (ts TemporalSpec) Validate() error {
	switch {
	case ts.Period <= 0:
		return fmt.Errorf("core: temporal period %v must be positive", ts.Period)
	case ts.Deadline < 0:
		return fmt.Errorf("core: temporal deadline slack %v must be non-negative", ts.Deadline)
	case ts.Fresh < 0:
		return fmt.Errorf("core: freshness window %v must be non-negative", ts.Fresh)
	case ts.Window < 0:
		return fmt.Errorf("core: aggregation window %d must be non-negative", ts.Window)
	}
	return nil
}

// temporalState is the per-query evaluation state behind the streaming
// methods: the immutable route, which period is due next, the newest
// reading consumed so far, and the deadline ledger. Everything but spec,
// t0 and route is guarded by the owning liveQuery's tmu, so streaming
// evaluations of distinct queries never contend.
type temporalState struct {
	spec        TemporalSpec
	t0          sim.Time
	route       Route
	nextK       int // 1-based index of the next period to evaluate
	lastReading sim.Time
	hasReading  bool
	evaluated   int
	late        int
	// scan is the window evaluation's per-node collection state and visit
	// its visitor, bound once at registration so handing it to a corridor
	// warmer costs no allocation per period. nodes is the contributor-id
	// buffer; it and scan.hits are reused across this query's periods.
	scan  windowScan
	visit func(id int32, pos geom.Point)
	nodes []radio.NodeID
	// winRing holds the last spec.Window single-period evaluations of a
	// windowed query (allocated on first use, entries reused in place);
	// winNext/winLen are the ring cursor and fill.
	winRing []windowPeriod
	winNext int
	winLen  int
}

// windowScan collects one windowed evaluation's in-area nodes: each is
// freshness-windowed against its reading — the plan's capture inside the
// pickup circle, else the engine's sampling schedule — and kept as a hit
// or counted stale. sampler and fresh are fixed at registration; the rest
// is reset per period.
type windowScan struct {
	sampler Sampler
	fresh   time.Duration
	due     sim.Time
	plan    PlannedPeriod
	area    int
	stale   int
	hits    []areaHit
}

func (s *windowScan) add(id int32, pos geom.Point) {
	s.area++
	sample, ok, prefetched := s.due, true, false
	switch {
	case s.plan.Staged && pos.Within(s.plan.Pickup, s.plan.Radius):
		sample, prefetched = s.plan.Capture, true
	case s.sampler != nil:
		sample, ok = s.sampler(id, s.due)
	}
	if !ok || (s.fresh > 0 && s.due-sample > s.fresh) || sample > s.due {
		s.stale++
		return
	}
	s.hits = append(s.hits, areaHit{id: id, pos: pos, sample: sample, prefetched: prefetched})
}

// windowPeriod is one single-period evaluation retained for N-period
// window merging (its data carries no contributor ids).
type windowPeriod struct {
	due        sim.Time
	data       Partial
	areaNodes  int
	staleNodes int
	maxStale   time.Duration
	prefetched int
}

// TemporalStats is a snapshot of one query's temporal accounting.
type TemporalStats struct {
	// NextK is the 1-based index of the next period due.
	NextK int
	// Evaluated and Late count periods evaluated so far and how many of
	// them missed their deadline.
	Evaluated int
	Late      int
	// LastReading is the newest reading timestamp consumed by any window
	// evaluation; HasReading is false until one contributing reading has
	// been seen.
	LastReading sim.Time
	HasReading  bool
}

// WindowResult is one period's freshness-windowed evaluation. The embedded
// AreaResult covers only the fresh contributors; stale in-area nodes are
// counted but excluded from the aggregate. Contributor ids are listed in
// Nodes only: Data.Contribs stays nil on the streaming path.
//
// Nodes aliases a per-query scratch buffer: it is valid until the same
// query's next evaluation, which reuses the storage. Callers that keep
// contributor ids across periods must copy them.
type WindowResult struct {
	AreaResult
	// K is the 1-based period index; the result was due at Due and
	// actually evaluated at EvaluatedAt.
	K           int
	Due         sim.Time
	EvaluatedAt sim.Time
	// Late reports EvaluatedAt > Due + spec.Deadline; Lateness is then
	// EvaluatedAt - Due (zero when on time).
	Late     bool
	Lateness time.Duration
	// AreaNodes counts every in-area node; StaleNodes those excluded for
	// missing the freshness window.
	AreaNodes  int
	StaleNodes int
	// MaxStaleness is the age at Due of the oldest contributing reading.
	MaxStaleness time.Duration
	// Prefetched counts contributing readings served from the query's
	// prefetch plan rather than the node sampling schedule; Warmup marks a
	// period inside the plan's equation-16 warmup interval. Both stay zero
	// for queries without a plan.
	Prefetched int
	Warmup     bool
	// Class is the machinery that served the period: ClassCold for a grid
	// scan over the sampling schedule, ClassPlanned for a planned route's
	// scan (including a period its corridor warmer declined),
	// ClassCorridor for a warm staged snapshot, ClassPyramid for an
	// aggregate-index answer (a declined index serves ClassCold). Values
	// are identical whichever class serves; a pyramid serve leaves Nodes
	// empty, since skipping the per-node enumeration is what the index
	// buys.
	Class obs.Class
	// WindowPeriods is how many period boundaries the result aggregates
	// over (spec.Window at steady state, ramping up from 1 at session
	// start); zero for plain per-period queries.
	WindowPeriods int
}

// ScheduleSampler builds the standard periodic sampling schedule: node id
// samples at phase(id) + n*period for n >= 0, so its newest reading at
// time `at` was taken at the last such instant, and before its first
// sample the node has no reading at all. phase must be pure and return
// values in [0, period).
func ScheduleSampler(period time.Duration, phase func(id int32) sim.Time) Sampler {
	return func(id int32, at sim.Time) (sim.Time, bool) {
		ph := phase(id)
		if at < ph {
			return 0, false
		}
		return ph + (at-ph)/period*period, true
	}
}

// RegisterTemporalE registers a live query carrying a temporal contract
// and its serve route: periods are counted from t0, with the first result
// due at t0+Period. The query is then driven with NextDue and
// EvaluateDueBatch instead of Evaluate. The route is fixed for the query's
// lifetime; an illegal route shape is an error (see Route).
func (e *QueryEngine) RegisterTemporalE(queryID uint32, radius float64, pos geom.Point, spec TemporalSpec, t0 sim.Time, route Route) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := route.validate(); err != nil {
		return err
	}
	t := &temporalState{spec: spec, t0: t0, route: route, nextK: 1}
	t.scan.sampler, t.scan.fresh = e.cfg.Sampler, spec.Fresh
	t.visit = t.scan.add
	return e.register(queryID, radius, pos, t)
}

// temporal returns the query and its temporal state, or nil if the query
// is unknown or was registered without a temporal contract.
func (e *QueryEngine) temporal(queryID uint32) *liveQuery {
	st := e.stripe(queryID)
	st.mu.RLock()
	q := st.queries[queryID]
	st.mu.RUnlock()
	if q == nil || q.temporal == nil {
		return nil
	}
	return q
}

// NextDue returns the index and due time of the next unevaluated period of
// a temporal query. ok is false for unknown or non-temporal queries.
func (e *QueryEngine) NextDue(queryID uint32) (k int, due sim.Time, ok bool) {
	q := e.temporal(queryID)
	if q == nil {
		return 0, 0, false
	}
	q.tmu.Lock()
	t := q.temporal
	k, due = t.nextK, t.t0+sim.Time(t.nextK)*t.spec.Period
	q.tmu.Unlock()
	return k, due, true
}

// EvaluateDueBatch evaluates the next period of a temporal query if its
// boundary has been reached by now, deferring the query's schedule re-arm
// into rb. It returns ok=false when the query is unknown, has no temporal
// contract, or its next period is not yet due. The result is computed as
// of the period boundary — waypoint read at call time, readings as-of the
// boundary, freshness measured against it — while lateness compares now
// against the boundary plus the deadline slack. Calls for distinct queries
// proceed in parallel; calls for one query are serialized and advance its
// period counter exactly once each.
//
// A clock driver pops the due queries (PopDue), drains each on a dispatch
// worker into that worker's RearmBatch, and flushes every batch with
// FlushRearms, which takes each schedule stripe lock once. Between the
// evaluation and the flush the query is absent from the schedule; NextDue
// (computed from temporal state, not the schedule) still reports the
// following boundary, so drain loops are unaffected. rb must be flushed
// before the next PopDue that should see these boundaries.
func (e *QueryEngine) EvaluateDueBatch(queryID uint32, now sim.Time, rb *RearmBatch) (WindowResult, bool) {
	q := e.temporal(queryID)
	if q == nil {
		return WindowResult{}, false
	}
	q.tmu.Lock()
	defer q.tmu.Unlock()
	t := q.temporal
	due := t.t0 + sim.Time(t.nextK)*t.spec.Period
	if due > now {
		return WindowResult{}, false
	}
	res, pp := e.evaluateWindow(q, due)
	res.K = t.nextK
	res.Due = due
	res.EvaluatedAt = now
	if t.route.Plan != nil {
		// A period the prefetch chain staged at the pickup point by its
		// boundary was materially available to the user then — the clock
		// tick that collects it merely relays a finished answer, so the
		// period is accounted as evaluated when it was staged, not when
		// the tick got to it. The credit requires the whole delivered
		// answer to have been staged: every contributing reading from the
		// plan (or a genuinely empty area). A partially mispredicted
		// pickup circle means the on-demand remainder only existed at the
		// tick, so the period keeps honest tick/lateness accounting, as do
		// unstaged (warmup) periods.
		covered := res.Prefetched == res.Data.Count &&
			(res.Data.Count > 0 || res.AreaNodes == 0)
		if pp.Staged && pp.Ready <= now && covered {
			res.EvaluatedAt = max(pp.Ready, due)
		}
		res.Warmup = pp.Warmup
	}
	if res.EvaluatedAt > due+t.spec.Deadline {
		res.Late = true
		res.Lateness = res.EvaluatedAt - due
	}
	if t.spec.Window > 1 {
		res = t.mergeWindow(res)
	}
	t.nextK++
	t.evaluated++
	if res.Late {
		t.late++
	}
	// Record the next boundary; FlushRearms applies it under the schedule
	// stripe lock, skipping queries whose dead flag a Deregister set in
	// the meantime.
	rb.add(q, t.t0+sim.Time(t.nextK)*t.spec.Period, e.sched.stripeIndex(q.id))
	return res, true
}

// Stats returns the temporal accounting snapshot of one query. ok is
// false for unknown or non-temporal queries.
func (e *QueryEngine) Stats(queryID uint32) (TemporalStats, bool) {
	q := e.temporal(queryID)
	if q == nil {
		return TemporalStats{}, false
	}
	q.tmu.Lock()
	defer q.tmu.Unlock()
	t := q.temporal
	return TemporalStats{
		NextK:       t.nextK,
		Evaluated:   t.evaluated,
		Late:        t.late,
		LastReading: t.lastReading,
		HasReading:  t.hasReading,
	}, true
}

// evaluateWindow computes the freshness-windowed area result of q as of
// the period boundary `due`, choosing the node source once from the
// query's route: the aggregate index's whole-disk answer, a corridor
// warmer's staged snapshot, or the grid radius scan — the fallback of
// both, bit-identical by their contracts. It also returns the plan's view
// of the period (zero without a plan) for the caller's deadline credit.
// Caller holds q.tmu.
func (e *QueryEngine) evaluateWindow(q *liveQuery, due sim.Time) (WindowResult, PlannedPeriod) {
	t := q.temporal
	center := *q.pos.Load()
	out := WindowResult{
		AreaResult: AreaResult{QueryID: q.id, Center: center, Radius: q.radius, Data: NewPartial()},
	}
	r := &t.route
	if r.Index != nil {
		if sv, ok := r.Index.ServeWindow(due, center, q.radius, t.spec.Fresh); ok {
			out.Data = sv.Data
			out.Class = obs.ClassPyramid
			out.AreaNodes, out.StaleNodes, out.MaxStaleness = sv.AreaNodes, sv.StaleNodes, sv.MaxStaleness
			if sv.Data.Count > 0 && (!t.hasReading || sv.Newest > t.lastReading) {
				t.lastReading = sv.Newest
				t.hasReading = true
			}
			return out, PlannedPeriod{}
		}
	}
	sc := &t.scan
	sc.due, sc.plan, sc.area, sc.stale, sc.hits = due, PlannedPeriod{}, 0, 0, sc.hits[:0]
	if r.Plan != nil {
		sc.plan = r.Plan.PlanPeriod(due)
		out.Class = obs.ClassPlanned
	}
	if r.Warmer != nil && r.Warmer.VisitStaged(due, center, q.radius, t.visit) {
		out.Class = obs.ClassCorridor
	} else {
		e.grid.VisitWithin(center, q.radius, t.visit)
	}
	out.AreaNodes, out.StaleNodes = sc.area, sc.stale
	e.finishWindow(t, &out, due)
	return out, sc.plan
}

// mergeWindow folds the current single-period evaluation into the query's
// N-period ring and returns the windowed result: the last spec.Window
// periods' aggregates merged oldest first (each period was evaluated at its
// own boundary position), with summed node accounting and staleness
// re-aged to the current boundary. The current period's timing fields
// (Due, EvaluatedAt, Late, Class, ...) are kept: the window is a data
// aggregate, not a delivery contract. Caller holds the owning query's tmu.
func (t *temporalState) mergeWindow(cur WindowResult) WindowResult {
	w := t.spec.Window
	if t.winRing == nil {
		t.winRing = make([]windowPeriod, w)
	}
	t.winRing[t.winNext] = windowPeriod{
		due:        cur.Due,
		data:       cur.Data,
		areaNodes:  cur.AreaNodes,
		staleNodes: cur.StaleNodes,
		maxStale:   cur.MaxStaleness,
		prefetched: cur.Prefetched,
	}
	t.winNext = (t.winNext + 1) % w
	if t.winLen < w {
		t.winLen++
	}

	out := cur
	out.Data = NewPartial()
	out.AreaNodes, out.StaleNodes, out.MaxStaleness, out.Prefetched = 0, 0, 0, 0
	for i := 0; i < t.winLen; i++ {
		p := &t.winRing[(t.winNext+w-t.winLen+i)%w]
		out.Data.Count += p.data.Count
		out.Data.Sum += p.data.Sum
		if p.data.Count > 0 {
			if p.data.Min < out.Data.Min {
				out.Data.Min = p.data.Min
			}
			if p.data.Max > out.Data.Max {
				out.Data.Max = p.data.Max
			}
			// A reading's age grows with every boundary it is carried
			// across: re-age each period's staleness to the current due.
			if aged := p.maxStale + time.Duration(cur.Due-p.due); aged > out.MaxStaleness {
				out.MaxStaleness = aged
			}
		}
		out.AreaNodes += p.areaNodes
		out.StaleNodes += p.staleNodes
		out.Prefetched += p.prefetched
	}
	out.WindowPeriods = t.winLen
	return out
}

// finishWindow sorts the scan's hits and folds them into the result,
// reusing the query's scratch buffers. Caller holds the owning query's tmu.
func (e *QueryEngine) finishWindow(t *temporalState, out *WindowResult, due sim.Time) {
	// Sort by id so Nodes and float accumulation order are deterministic
	// regardless of shard layout, exactly as the instantaneous path does.
	hits := t.scan.hits
	slices.SortFunc(hits, hitsByID)
	// One Grow on the first period instead of append doubling; every later
	// period of this query reuses the buffer allocation-free.
	out.Nodes = slices.Grow(t.nodes[:0], len(hits))
	for _, h := range hits {
		out.Nodes = append(out.Nodes, radio.NodeID(h.id))
		out.Data.addValue(e.fld.Sample(h.pos, h.sample))
		if h.prefetched {
			out.Prefetched++
		}
		if age := due - h.sample; age > out.MaxStaleness {
			out.MaxStaleness = age
		}
		if !t.hasReading || h.sample > t.lastReading {
			t.lastReading = h.sample
			t.hasReading = true
		}
	}
	t.nodes = out.Nodes
}
