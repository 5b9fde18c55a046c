package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// EngineConfig sizes the concurrent multi-user query engine: how many
// spatial shards the node index uses and how many workers the dispatch pool
// runs. Zero values select sane defaults, so the zero EngineConfig is valid.
type EngineConfig struct {
	// Shards is the spatial shard count of the node index
	// (<=0 selects geom.DefaultShards).
	Shards int
	// Workers is the worker-pool size used to fan independent users'
	// work across cores (<=0 selects GOMAXPROCS).
	Workers int
	// Sampler is the node sampling schedule windowed evaluation reads
	// against. Nil means readings are taken at the evaluation instant
	// itself — the instantaneous oracle the batch paths use.
	Sampler Sampler
}

func (c EngineConfig) normalized() EngineConfig {
	if c.Shards <= 0 {
		c.Shards = geom.DefaultShards
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Validate reports configuration errors (negative knobs; zero means auto).
func (c EngineConfig) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("core: engine shards must be non-negative, got %d", c.Shards)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: engine workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// queryStripes is the number of hash stripes of the query registry. It
// bounds contention between concurrent Register/UpdateWaypoint calls for
// different users.
const queryStripes = 64

// liveQuery is one registered user query: a radius around a mobile
// waypoint. The waypoint is published through an atomic pointer so updates
// never block evaluation. Queries registered through RegisterTemporalE
// additionally carry streaming evaluation state and their serve route (see
// temporal.go); tmu serializes per-period evaluations of one query while
// distinct queries never contend. The route is fixed at registration, so
// no evaluation input changes underneath a running query.
type liveQuery struct {
	id       uint32
	radius   float64
	pos      atomic.Pointer[geom.Point]
	tmu      sync.Mutex
	temporal *temporalState
	// dead is set by Deregister (under the registry stripe write lock,
	// before the schedule entry is removed) so a batched re-arm holding only
	// the schedule stripe lock can tell a deregistered query from a live one
	// without touching the registry — see FlushRearms.
	dead atomic.Bool
}

type engineStripe struct {
	mu      sync.RWMutex
	queries map[uint32]*liveQuery
}

// QueryEngine is the sharded, concurrent multi-user query engine: a spatial
// index of sensor-node positions (geom.ShardedGrid) plus a registry of live
// user queries, with all per-user work — registration, waypoint updates,
// and query-area evaluation — safe to issue from many goroutines at once
// and fanned across a worker pool by EvaluateAll/Dispatch.
//
// It answers the instantaneous form of the paper's spatiotemporal query:
// "which sensors are inside the circle of radius Rq around each user right
// now, and what is the aggregate of their readings". The discrete-event
// Service uses it as its oracle node index; the experiment scale harness
// drives it directly with tens of thousands of users.
//
// Temporal queries (RegisterTemporalE) stream one result per period. Each
// carries a serve route fixed at registration — cold, planned, planned
// plus corridor, or pyramid — and the engine's sampling schedule is fixed
// at construction (EngineConfig.Sampler), so nothing that feeds an
// evaluation can change once the engine and the query are built.
type QueryEngine struct {
	cfg     EngineConfig
	grid    *geom.ShardedGrid
	fld     field.Field
	stripes [queryStripes]engineStripe
	nq      atomic.Int64
	// sched tracks every temporal query's next period boundary, keyed
	// (due, id), so PopDue hands a clock driver exactly the queries with a
	// period due — an idle tick costs O(1) instead of O(queries).
	sched *Schedule
}

// NewQueryEngine creates an engine over region. cellSize tunes the spatial
// hash (the typical query radius or the radio range are good choices); fld
// is the sensor field sampled during evaluation. It panics on invalid
// input; NewQueryEngineE is the error-returning variant.
func NewQueryEngine(region geom.Rect, cellSize float64, fld field.Field, cfg EngineConfig) *QueryEngine {
	e, err := NewQueryEngineE(region, cellSize, fld, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NewQueryEngineE is NewQueryEngine reporting invalid input as an error.
func NewQueryEngineE(region geom.Rect, cellSize float64, fld field.Field, cfg EngineConfig) (*QueryEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fld == nil {
		return nil, fmt.Errorf("core: query engine needs a field")
	}
	cfg = cfg.normalized()
	e := &QueryEngine{
		cfg:  cfg,
		grid: geom.NewShardedGrid(region, cellSize, cfg.Shards),
		fld:  fld,
		// One schedule stripe per worker (rounded to a power of two): the
		// contention on the schedule comes from the workers' re-arms, and
		// any stripe count pops identically, so sizing is purely a
		// concurrency knob — Shards/Workers invariance holds by the merge.
		sched: NewScheduleStriped(cfg.Workers),
	}
	for i := range e.stripes {
		e.stripes[i].queries = make(map[uint32]*liveQuery)
	}
	return e, nil
}

// Workers returns the dispatch pool size.
func (e *QueryEngine) Workers() int { return e.cfg.Workers }

// Index returns the underlying sharded node index.
func (e *QueryEngine) Index() *geom.ShardedGrid { return e.grid }

// UpsertNode records (or moves) a sensor node's position. Safe for
// concurrent use across distinct node ids.
func (e *QueryEngine) UpsertNode(id radio.NodeID, p geom.Point) {
	e.grid.Insert(int32(id), p)
}

// RemoveNode drops a sensor node from the index (a failed node). Removing
// an unknown node is a no-op.
func (e *QueryEngine) RemoveNode(id radio.NodeID) { e.grid.Remove(int32(id)) }

// NodeCount returns the number of indexed sensor nodes.
func (e *QueryEngine) NodeCount() int { return e.grid.Len() }

func (e *QueryEngine) stripe(queryID uint32) *engineStripe {
	return &e.stripes[(queryID*2654435761)%queryStripes]
}

// Register adds a live user query of the given radius centered at pos.
// QueryIDs must be unique and non-zero; radius must be positive. Distinct
// users may register concurrently. It panics on invalid input; RegisterE
// is the error-returning variant.
func (e *QueryEngine) Register(queryID uint32, radius float64, pos geom.Point) {
	if err := e.RegisterE(queryID, radius, pos); err != nil {
		panic(err)
	}
}

// RegisterE is Register reporting invalid input (zero id, non-positive
// radius, duplicate id) as an error. A query id freed by Deregister may be
// registered again.
func (e *QueryEngine) RegisterE(queryID uint32, radius float64, pos geom.Point) error {
	return e.register(queryID, radius, pos, nil)
}

func (e *QueryEngine) register(queryID uint32, radius float64, pos geom.Point, t *temporalState) error {
	if queryID == 0 {
		return fmt.Errorf("core: query id must be non-zero")
	}
	if !(radius > 0) || math.IsInf(radius, 1) {
		return fmt.Errorf("core: query radius must be positive and finite")
	}
	q := &liveQuery{id: queryID, radius: radius, temporal: t}
	p := pos
	q.pos.Store(&p)
	st := e.stripe(queryID)
	st.mu.Lock()
	if _, dup := st.queries[queryID]; dup {
		st.mu.Unlock()
		return fmt.Errorf("core: duplicate query id %d", queryID)
	}
	st.queries[queryID] = q
	if t != nil {
		// Scheduled under the stripe lock so a concurrent Deregister of
		// the same id cannot observe the query without its schedule entry.
		e.sched.Upsert(queryID, t.t0+sim.Time(t.nextK)*t.spec.Period)
	}
	st.mu.Unlock()
	e.nq.Add(1)
	return nil
}

// Deregister removes a live query. Unknown ids are a no-op.
func (e *QueryEngine) Deregister(queryID uint32) {
	st := e.stripe(queryID)
	st.mu.Lock()
	q, ok := st.queries[queryID]
	delete(st.queries, queryID)
	if ok {
		// dead is set before the schedule entry is removed: a deferred
		// re-arm that checks it under the schedule stripe lock either sees
		// it (and skips) or upserts first — in which case this Remove, which
		// serializes on the same stripe lock, deletes the stale entry right
		// after. Either way the entry cannot be resurrected.
		q.dead.Store(true)
		e.sched.Remove(queryID)
	}
	st.mu.Unlock()
	if ok {
		e.nq.Add(-1)
	}
}

// PopDue removes and returns every temporal query whose next period
// boundary is at or before now, appended to buf in ascending (due, id)
// order. A popped query is the caller's to drive: each EvaluateDueBatch
// records its following boundary, so a clock driver loops EvaluateDueBatch
// until the next boundary passes now and then flushes the batches
// (FlushRearms) to keep the schedule consistent. When no period is due the
// call is an O(1) peek — this is what makes an idle Advance independent of
// the subscriber count.
func (e *QueryEngine) PopDue(now sim.Time, buf []DueEntry) []DueEntry {
	return e.sched.PopDue(now, buf)
}

// ScheduleStats snapshots the due-period scheduler: stripe count, total and
// per-stripe entry counts, and the fan-in of the last non-empty PopDue.
func (e *QueryEngine) ScheduleStats() ScheduleStats { return e.sched.Stats() }

// ScheduleStatsInto is ScheduleStats writing into a caller-owned snapshot,
// reusing its StripeLens capacity (see Schedule.StatsInto).
func (e *QueryEngine) ScheduleStatsInto(out *ScheduleStats) { e.sched.StatsInto(out) }

// LastMergeDepth returns the stripe fan-in of the most recent non-empty
// PopDue as one atomic load (see Schedule.LastMergeDepth).
func (e *QueryEngine) LastMergeDepth() int { return e.sched.LastMergeDepth() }

// rearmEntry is one deferred schedule re-arm: query q's next boundary is
// due. The liveQuery pointer (not the bare id) is carried so the flush can
// check q.dead — the id alone could since have been freed and re-registered
// to a different query.
type rearmEntry struct {
	q   *liveQuery
	due sim.Time
}

// RearmBatch collects deferred schedule re-arms, bucketed by schedule
// stripe. EvaluateDueBatch appends to it instead of taking the schedule
// lock per query; FlushRearms then takes each touched stripe's lock exactly
// once. One batch belongs to one worker at a time (it is not synchronized);
// create per-worker batches with NewRearmBatch and reuse them across
// Advance steps — a flushed batch is empty and allocation-free to refill.
type RearmBatch struct {
	byStripe [][]rearmEntry
}

// NewRearmBatch returns an empty re-arm batch sized for e's scheduler.
func (e *QueryEngine) NewRearmBatch() *RearmBatch {
	return &RearmBatch{byStripe: make([][]rearmEntry, e.sched.StripeCount())}
}

// add records q's next boundary. Consecutive re-arms of the same query
// coalesce: when a driver drains several due periods of one query in a row,
// only the final boundary needs to reach the schedule.
func (rb *RearmBatch) add(q *liveQuery, due sim.Time, stripe int) {
	b := rb.byStripe[stripe]
	if n := len(b); n > 0 && b[n-1].q == q {
		b[n-1].due = due
		return
	}
	rb.byStripe[stripe] = append(b, rearmEntry{q: q, due: due})
}

// FlushRearms applies every deferred re-arm in rb to the schedule, one
// stripe lock hold per touched stripe, and resets rb for reuse. Queries
// deregistered since their evaluation are skipped (see liveQuery.dead);
// the ordering argument for why a racing Deregister can never leave a
// resurrected entry is on Deregister.
func (e *QueryEngine) FlushRearms(rb *RearmBatch) {
	for i, bucket := range rb.byStripe {
		if len(bucket) == 0 {
			continue
		}
		st := &e.sched.stripes[i]
		st.mu.Lock()
		for _, en := range bucket {
			if !en.q.dead.Load() {
				st.upsert(en.q.id, en.due)
			}
		}
		st.publishHead()
		st.mu.Unlock()
		// Zero the liveQuery pointers so a burst-sized batch doesn't pin
		// closed queries for the batch's (service-long) lifetime.
		clear(bucket)
		rb.byStripe[i] = bucket[:0]
	}
}

// UpdateWaypoint moves a user's query center (the user walked). It reports
// whether the query is registered. Updates for distinct users never
// contend, and evaluation in flight sees either the old or the new point.
func (e *QueryEngine) UpdateWaypoint(queryID uint32, pos geom.Point) bool {
	st := e.stripe(queryID)
	st.mu.RLock()
	q := st.queries[queryID]
	st.mu.RUnlock()
	if q == nil {
		return false
	}
	p := pos
	q.pos.Store(&p)
	return true
}

// QueryCount returns the number of registered live queries.
func (e *QueryEngine) QueryCount() int { return int(e.nq.Load()) }

// AreaResult is the instantaneous evaluation of one user's query area.
type AreaResult struct {
	QueryID uint32
	// Center and Radius are the evaluated circle.
	Center geom.Point
	Radius float64
	// Nodes lists the in-area sensor nodes in ascending id order.
	Nodes []radio.NodeID
	// Data aggregates the in-area readings at the evaluation instant.
	Data Partial
}

// areaHit is one in-area sensor collected during evaluation, with the
// timestamp of the reading consumed (the evaluation instant on the
// instantaneous path; the node's newest sample on the windowed path).
type areaHit struct {
	id     int32
	pos    geom.Point
	sample sim.Time
	// prefetched marks a reading served from the query's prefetch plan
	// (always false on the instantaneous path).
	prefetched bool
}

// hitsByID orders collected hits by node id so Nodes, Contribs, and float
// accumulation order are deterministic regardless of shard layout and
// insertion interleaving.
func hitsByID(a, b areaHit) int { return cmp.Compare(a.id, b.id) }

// hitPool recycles the per-evaluation hit scratch: EvaluateAll over
// thousands of users would otherwise grow-and-discard one slice per user
// per sweep.
var hitPool = sync.Pool{New: func() any { return new([]areaHit) }}

// evaluate computes one query's area result at virtual time at. Pure with
// respect to engine state: it only reads immutable bucket snapshots and the
// query's atomic waypoint, so any number of evaluations run in parallel.
func (e *QueryEngine) evaluate(q *liveQuery, at sim.Time) AreaResult {
	center := *q.pos.Load()
	res := AreaResult{QueryID: q.id, Center: center, Radius: q.radius, Data: NewPartial()}
	scratch := hitPool.Get().(*[]areaHit)
	hits := (*scratch)[:0]
	e.grid.VisitWithin(center, q.radius, func(id int32, pos geom.Point) {
		hits = append(hits, areaHit{id: id, pos: pos})
	})
	slices.SortFunc(hits, hitsByID)
	res.Nodes = make([]radio.NodeID, 0, len(hits))
	for _, h := range hits {
		res.Nodes = append(res.Nodes, radio.NodeID(h.id))
		res.Data.AddReading(radio.NodeID(h.id), e.fld.Sample(h.pos, at))
	}
	*scratch = hits
	hitPool.Put(scratch)
	return res
}

// Evaluate computes one registered query's area result at virtual time at.
func (e *QueryEngine) Evaluate(queryID uint32, at sim.Time) (AreaResult, bool) {
	st := e.stripe(queryID)
	st.mu.RLock()
	q := st.queries[queryID]
	st.mu.RUnlock()
	if q == nil {
		return AreaResult{}, false
	}
	return e.evaluate(q, at), true
}

// snapshot returns the registered queries sorted by id.
func (e *QueryEngine) snapshot() []*liveQuery {
	out := make([]*liveQuery, 0, e.nq.Load())
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		for _, q := range st.queries {
			out = append(out, q)
		}
		st.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b *liveQuery) int { return cmp.Compare(a.id, b.id) })
	return out
}

// EvaluateAll evaluates every registered query at virtual time at,
// dispatching independent users across the worker pool. Results are in
// ascending query-id order and identical to EvaluateAllSerial.
func (e *QueryEngine) EvaluateAll(at sim.Time) []AreaResult {
	qs := e.snapshot()
	out := make([]AreaResult, len(qs))
	e.Dispatch(len(qs), func(i int) { out[i] = e.evaluate(qs[i], at) })
	return out
}

// EvaluateAllSerial is EvaluateAll through a plain serial loop: the
// pre-sharding dispatch path, kept as the benchmark baseline.
func (e *QueryEngine) EvaluateAllSerial(at sim.Time) []AreaResult {
	qs := e.snapshot()
	out := make([]AreaResult, len(qs))
	for i, q := range qs {
		out[i] = e.evaluate(q, at)
	}
	return out
}

// Dispatch runs fn(0..n-1) across the engine's worker pool and returns when
// all calls have completed. Workers pull indices from a shared queue, so
// uneven per-user costs balance out. fn must be safe for concurrent
// invocation with distinct arguments; with one worker (or n<2) the calls
// run serially in order.
func (e *QueryEngine) Dispatch(n int, fn func(i int)) {
	e.DispatchWorkers(n, func(_, i int) { fn(i) })
}

// DispatchWorkers is Dispatch with the worker's index (0..Workers-1) passed
// to fn alongside the work index, so callers can hand each worker private
// scratch (a RearmBatch, an output lane) without synchronization. Which
// worker runs which index is nondeterministic; with one worker (or n<2)
// every call runs serially on worker 0.
func (e *QueryEngine) DispatchWorkers(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := e.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(worker, int(i))
			}
		}(k)
	}
	wg.Wait()
}
