package mobiquery

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/obs"
	"mobiquery/internal/pyramid"
	"mobiquery/internal/radio"
)

// pyramidMinRadiusCells is the attach threshold for the aggregate tile
// pyramid: an on-demand subscription uses the pyramid when its query radius
// spans at least this many index cells (or it asked for a lookback Window).
// Below it the disk covers too few cells for tile decomposition to beat the
// flat scan it would replace.
const pyramidMinRadiusCells = 6

// NetworkConfig describes the sensor field a Service runs over: how many
// nodes, where, what they measure, and how often each refreshes its
// reading. Construct with DefaultNetworkConfig and override as needed.
type NetworkConfig struct {
	// Seed makes node placement and sampling phases reproducible.
	Seed int64
	// Nodes sensors are deployed uniformly over a RegionSide × RegionSide
	// square (m).
	Nodes      int
	RegionSide float64
	// SamplePeriod is how often each sensor refreshes its reading — the
	// duty-cycle analogue the freshness window is measured against. Nodes
	// sample out of phase with one another (deterministically from Seed)
	// unless WithAlignedSampling is given. Zero selects 1 s.
	SamplePeriod time.Duration
	// Field is what the sensors measure. Nil selects UniformField(20),
	// the paper's default reading.
	Field Field
	// Service sizes the concurrent query engine.
	Service ServiceConfig
}

// DefaultNetworkConfig returns the paper's Section 6.1 field: 200 nodes
// over 450 m × 450 m, sampling once per second.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Seed:         1,
		Nodes:        200,
		RegionSide:   450,
		SamplePeriod: time.Second,
	}
}

// Validate reports configuration errors without opening anything.
func (nc NetworkConfig) Validate() error {
	switch {
	case nc.Nodes <= 0:
		return fmt.Errorf("mobiquery: network Nodes must be positive, got %d", nc.Nodes)
	case nc.RegionSide <= 0:
		return fmt.Errorf("mobiquery: network RegionSide must be positive, got %v", nc.RegionSide)
	case nc.SamplePeriod < 0:
		return fmt.Errorf("mobiquery: network SamplePeriod must be non-negative, got %v", nc.SamplePeriod)
	case nc.Service.Shards < 0 || nc.Service.Workers < 0:
		return fmt.Errorf("mobiquery: service Shards and Workers must be non-negative")
	}
	return nil
}

func (nc NetworkConfig) withDefaults() NetworkConfig {
	if nc.SamplePeriod == 0 {
		nc.SamplePeriod = time.Second
	}
	if nc.Field == nil {
		nc.Field = UniformField(20)
	}
	return nc
}

// serviceOptions collects the Open options.
type serviceOptions struct {
	buffer        int
	aligned       bool
	tick          time.Duration
	traceDepth    int
	firehoseDepth int
}

// Option customizes an opened Service.
type Option func(*serviceOptions)

// WithResultBuffer sets the per-subscription result channel capacity
// (default 16). When a subscriber falls behind and its buffer fills, new
// results are dropped and counted in SubscriptionStats.Dropped rather than
// stalling the service.
func WithResultBuffer(n int) Option {
	return func(o *serviceOptions) { o.buffer = n }
}

// WithAlignedSampling makes every node sample in phase, at exact multiples
// of NetworkConfig.SamplePeriod. Staleness then becomes an exact function
// of the deadline alone, which the Example tests rely on; the default
// (per-node random phases) is the realistic setting.
func WithAlignedSampling() Option {
	return func(o *serviceOptions) { o.aligned = true }
}

// WithTraceDepth sets how many recent period lifecycle spans each
// subscription's trace ring retains (default 16; see
// Subscription.TraceSpans). 0 disables tracing entirely — subscriptions
// then carry no ring and the per-period tracing cost is one nil check.
// The ring is allocated once at Subscribe, so tracing adds nothing to the
// Advance hot path's allocation count at any depth.
func WithTraceDepth(n int) Option {
	return func(o *serviceOptions) {
		if n < 0 {
			n = 0
		}
		o.traceDepth = n
	}
}

// WithSpanFirehose sets how many completed period spans the service-wide
// span firehose ring retains (default 4096; see Service.FirehoseSpans and
// the server's GET /v1/trace). The firehose is deliberately lossy: at
// capacity the oldest span is overwritten and counted dropped, so slow
// readers never back-pressure the tick path. 0 disables it.
func WithSpanFirehose(n int) Option {
	return func(o *serviceOptions) {
		if n < 0 {
			n = 0
		}
		o.firehoseDepth = n
	}
}

// WithRealTime drives the service clock from the wall clock: virtual time
// advances by tick every tick of real time, so subscriptions stream
// results without explicit Advance calls. Without this option the clock is
// manual — the caller advances it with Service.Advance, which is exactly
// reproducible and is what tests and the experiment harness use.
func WithRealTime(tick time.Duration) Option {
	return func(o *serviceOptions) { o.tick = tick }
}

// Service is a live MobiQuery session: a sharded concurrent query engine
// standing over a sensor field, accepting streaming query subscriptions
// from mobile users while it runs. Open it once; Subscribe and Close
// subscriptions freely while other subscribers keep streaming — one
// subscriber's churn never changes another's results.
//
// The service runs on virtual time. By default the clock is manual
// (Advance); WithRealTime ties it to the wall clock. All methods are safe
// for concurrent use.
type Service struct {
	cfg    NetworkConfig
	opts   serviceOptions
	region geom.Rect
	cell   float64
	engine *core.QueryEngine

	// obs is the service's instrumentation: metric families registered at
	// Open so every hot-path record is a bare atomic update (observe.go).
	obs *svcObs

	// spans is the service-wide span firehose every completed period span
	// is published into (FirehoseSpans, GET /v1/trace); nil when opened
	// with WithSpanFirehose(0). Ring-buffered and drop-counted — publish
	// never allocates or blocks on a reader.
	spans *obs.SpanSink

	// pyramids holds one aggregate tile pyramid per boundary class — the
	// (period, freshness, phase) tuple whose subscriptions share the exact
	// same period-boundary instants, and therefore the same epochs. Guarded
	// by mu; entries live for the life of the service (classes are few and
	// epochs bounded by each pyramid's ring).
	pyramids map[pyrKey]*pyramid.Pyramid

	// mu guards the membership state only: the subscription registry and
	// the clock. Evaluation runs outside it, so Subscribe, Close, and
	// read-only introspection never wait on an in-flight Advance batch.
	mu       sync.RWMutex
	now      time.Duration
	subs     map[uint32]*Subscription
	nextID   uint32
	closed   bool
	draining bool
	stop     chan struct{}

	// Lifetime delivery totals across every subscription, live or closed
	// (ServiceStats). Atomics: deliver runs under per-subscription locks,
	// never a service-wide one.
	totOpened    atomic.Uint64
	totClosed    atomic.Uint64
	totDelivered atomic.Uint64
	totDropped   atomic.Uint64
	totLate      atomic.Uint64

	// advMu serializes Advance calls (the clock moves one step at a time)
	// and guards the scratch buffers below, which are reused across steps
	// so a steady-state Advance allocates nothing on the scheduling path.
	// batches holds one WorkerBatch (schedule re-arms plus evaluation
	// scratch) per dispatch worker, created on the first non-empty step.
	advMu   sync.Mutex
	due     []core.DueEntry
	batch   []*Subscription
	outs    [][]pendingResult
	batches []*core.WorkerBatch
}

// Open stands up a Service over the configured sensor field. Configuration
// problems are reported as errors, never panics. The service is closed by
// Close or by cancellation of ctx.
func Open(ctx context.Context, nc NetworkConfig, opts ...Option) (*Service, error) {
	if err := nc.Validate(); err != nil {
		return nil, err
	}
	o := serviceOptions{buffer: 16, traceDepth: 16, firehoseDepth: 4096}
	for _, opt := range opts {
		opt(&o)
	}
	if o.buffer <= 0 {
		return nil, fmt.Errorf("mobiquery: result buffer must be positive, got %d", o.buffer)
	}
	if o.tick < 0 {
		return nil, fmt.Errorf("mobiquery: real-time tick must be non-negative, got %v", o.tick)
	}
	nc = nc.withDefaults()

	region := geom.Square(nc.RegionSide)
	cell := nc.RegionSide / 32
	s := &Service{
		cfg:      nc,
		opts:     o,
		region:   region,
		cell:     cell,
		subs:     make(map[uint32]*Subscription),
		pyramids: make(map[pyrKey]*pyramid.Pyramid),
		stop:     make(chan struct{}),
		spans:    obs.NewSpanSink(o.firehoseDepth),
	}
	engine, err := core.NewQueryEngineE(region, cell, nc.Field, core.EngineConfig{
		Shards:  nc.Service.Shards,
		Workers: nc.Service.Workers,
		Sampler: s.sampler(),
	})
	if err != nil {
		return nil, err
	}
	s.engine = engine
	s.obs = newSvcObs(s)

	// Node placement matches the scale harness: one serial RNG drained up
	// front, so the field depends only on the seed.
	rng := rand.New(rand.NewSource(nc.Seed))
	pos := make([]geom.Point, nc.Nodes)
	for i := range pos {
		pos[i] = region.UniformPoint(rng)
	}
	engine.Dispatch(nc.Nodes, func(i int) {
		engine.UpsertNode(radio.NodeID(i), pos[i])
	})

	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.stop:
			}
		}()
	}
	if o.tick > 0 {
		go s.runClock(o.tick)
	}
	return s, nil
}

// sampler returns the node sampling schedule: node i samples every
// SamplePeriod, with phase 0 under aligned sampling and a deterministic
// per-node offset in [0, SamplePeriod) otherwise.
func (s *Service) sampler() core.Sampler {
	period := s.cfg.SamplePeriod
	if s.opts.aligned {
		return core.ScheduleSampler(period, func(int32) time.Duration { return 0 })
	}
	seed := uint64(s.cfg.Seed)
	return core.ScheduleSampler(period, func(id int32) time.Duration {
		return time.Duration(splitmix64(seed^(uint64(uint32(id))+0x9E3779B97F4A7C15)) % uint64(period))
	})
}

// pyrKey identifies a pyramid-sharing class of subscriptions: same period,
// same freshness window, and same boundary phase (subscription time modulo
// period), so every member's period boundaries land on identical instants
// and one epoch per boundary serves them all.
type pyrKey struct {
	period time.Duration
	fresh  time.Duration
	phase  time.Duration
}

// pyramidFor returns the boundary class's shared pyramid, creating it on
// first use. Caller holds s.mu.
func (s *Service) pyramidFor(period, fresh time.Duration) (*pyramid.Pyramid, error) {
	key := pyrKey{period: period, fresh: fresh, phase: s.now % period}
	if p := s.pyramids[key]; p != nil {
		return p, nil
	}
	p, err := pyramid.New(s.engine.Index(), pyramid.Config{
		Fresh:  fresh,
		Sample: s.sampler(),
		Field:  s.cfg.Field,
	})
	if err != nil {
		return nil, err
	}
	s.pyramids[key] = p
	return p, nil
}

// PyramidStats returns the service's aggregate-pyramid ledger summed across
// every boundary class, and the number of classes instantiated so far.
func (s *Service) PyramidStats() (PyramidStats, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pyramidTotalsLocked()
}

// pyramidTotalsLocked sums every boundary class's ledger. Caller holds
// s.mu (either mode); p.Stats() is pure atomics, so holding it is cheap.
func (s *Service) pyramidTotalsLocked() (PyramidStats, int) {
	var tot PyramidStats
	for _, p := range s.pyramids {
		st := p.Stats()
		tot.Builds += st.Builds
		tot.DirtyBuilds += st.DirtyBuilds
		tot.Served += st.Served
		tot.MissNoEpoch += st.MissNoEpoch
		tot.MissFreshness += st.MissFreshness
		tot.MissVersion += st.MissVersion
		tot.NodesIngested += st.NodesIngested
		tot.FringeNodes += st.FringeNodes
		tot.ServedAreaNodes += st.ServedAreaNodes
		tot.CoveredTiles += st.CoveredTiles
		tot.FringeCells += st.FringeCells
	}
	return tot, len(s.pyramids)
}

// splitmix64 is the SplitMix64 finalizer: a tiny, well-mixed integer hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// runClock is the real-time driver: one Advance(tick) per tick of wall
// time until the service closes.
func (s *Service) runClock(tick time.Duration) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.Advance(tick) != nil {
				return
			}
		}
	}
}

// Now returns the service's current virtual time.
func (s *Service) Now() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// NodeCount returns the number of sensor nodes in the field.
func (s *Service) NodeCount() int { return s.engine.NodeCount() }

// Subscribers returns the number of live subscriptions. It takes only a
// read lock, so introspection never blocks Subscribe or an in-flight
// Advance.
func (s *Service) Subscribers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.subs)
}

// Drain puts the service into drain mode: new Subscribe calls fail while
// every existing subscription keeps streaming until it ends on its own
// (Lifetime, Close, context) — the graceful half of a shutdown. The clock
// keeps running; call Close once Subscribers reaches zero (or a grace
// period expires) to finish. Drain is idempotent and cannot be undone.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// ServiceStats is a point-in-time aggregate of the service's delivery
// ledger: the live membership plus lifetime totals accumulated across
// every subscription the service has ever carried, including closed ones.
// The totals obey Delivered + Dropped == sum of evaluated periods, the
// same accounting SubscriptionStats keeps per subscription.
type ServiceStats struct {
	// Now is the service's current virtual time; Nodes the sensor count;
	// Subscribers the live subscription count; Draining whether Drain has
	// been called.
	Now         time.Duration
	Nodes       int
	Subscribers int
	Draining    bool
	// Opened and Closed count subscriptions over the service's lifetime.
	Opened uint64
	Closed uint64
	// Delivered, Dropped, and Late total the per-subscription ledgers:
	// results handed to Results channels, results discarded against full
	// buffers, and results delivered past their deadline slack.
	Delivered uint64
	Dropped   uint64
	Late      uint64
	// PyramidClasses counts the aggregate-pyramid boundary classes the
	// service has instantiated; PyramidServes and PyramidBuilds total their
	// served evaluations and epoch ingests (see Service.PyramidStats for
	// the full ledger).
	PyramidClasses int
	PyramidServes  uint64
	PyramidBuilds  uint64
	// SchedStripes is the due-period scheduler's stripe count and SchedLen
	// its armed-entry total; SchedStripeLens breaks SchedLen down per
	// stripe (balance under load), and SchedMergeDepth is how many stripes
	// contributed to the most recent non-empty due batch — the k of
	// PopDue's k-way merge of the stripes' sorted runs.
	SchedStripes    int
	SchedLen        int
	SchedStripeLens []int
	SchedMergeDepth int
}

// Stats returns the service-wide delivery ledger. Like Subscribers it
// takes only the registry read lock, so introspection never blocks an
// in-flight Advance batch; the totals are atomics and may trail a
// concurrent delivery by an instant. Callers that snapshot repeatedly
// should use StatsInto (observe.go), which this wraps.
func (s *Service) Stats() ServiceStats {
	var st ServiceStats
	s.StatsInto(&st)
	return st
}

// Advance moves the service's virtual clock forward by d and delivers
// every query period that came due, in deadline order within each
// subscription. A period evaluated after its deadline slack — because the
// clock jumped past it in one coarse step, or because a real-time service
// stalled — is delivered marked late. Advance is exactly reproducible:
// the same configuration and call sequence yields the same results.
//
// The cost of a step is O(due): the engine's striped due-period schedule
// hands back exactly the subscriptions with a period boundary at or before
// the new time, so a tick on which nothing is due returns in constant time
// no matter how many subscribers are idle. Due subscriptions are evaluated
// in parallel across the engine's worker pool (waypoint update plus
// freshness-windowed evaluation per period), with each worker batching its
// schedule re-arms and flushing them once per stripe. Each subscription's
// finished lane is then delivered serially, in the order PopDue returned
// the subscriptions, so results and delivery order are byte-identical
// whatever the Shards/Workers configuration.
func (s *Service) Advance(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("mobiquery: cannot advance time backwards (%v)", d)
	}
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("mobiquery: service is closed")
	}
	s.now += d
	now := s.now
	s.mu.Unlock()

	// Collect the due batch: one entry per subscription with a period
	// boundary reached, in (due, id) order. Nothing due — the common case
	// for a fine-grained clock over long-period queries — is a peek. The
	// stage stamps below are wall-clock reads and atomic histogram updates
	// only, so the instrumented idle path stays 0-alloc (bench-idle-1m).
	o := s.obs
	tickStart := time.Now()
	s.due = s.engine.PopDue(now, s.due[:0])
	popEnd := time.Now()
	o.ticks.Inc()
	o.stagePop.Observe(popEnd.Sub(tickStart).Nanoseconds())
	if len(s.due) == 0 {
		o.idleTicks.Inc()
		return nil
	}
	o.popBatch.Observe(int64(len(s.due)))
	o.mergeDepth.Observe(int64(s.engine.LastMergeDepth()))
	poppedNS := popEnd.UnixNano()
	s.batch = s.batch[:0]
	s.mu.RLock()
	for _, de := range s.due {
		// A schedule entry can outlive its subscription by one pop when a
		// Close races an evaluation re-arm; the registry is authoritative.
		if sub := s.subs[de.ID]; sub != nil {
			s.batch = append(s.batch, sub)
		}
	}
	s.mu.RUnlock()

	// Fan the due subscriptions across the worker pool. Each worker drains
	// every period of its subscription due by now into a private buffer,
	// evaluating in its private batch's scratch and accumulating its
	// schedule re-arms there; subscriptions are independent, so the
	// fan-out cannot change results.
	if len(s.outs) < len(s.batch) {
		s.outs = append(s.outs, make([][]pendingResult, len(s.batch)-len(s.outs))...)
	}
	if s.batches == nil {
		s.batches = make([]*core.WorkerBatch, s.engine.Workers())
		for i := range s.batches {
			s.batches[i] = s.engine.NewWorkerBatch()
		}
	}
	outs, batch := s.outs[:len(s.batch)], s.batch
	batches := s.batches
	s.engine.DispatchWorkers(len(batch), func(worker, i int) {
		outs[i] = batch[i].collectDue(now, poppedNS, outs[i][:0], batches[worker])
	})
	evalEnd := time.Now()
	o.stageEval.Observe(evalEnd.Sub(popEnd).Nanoseconds())
	// Flush the workers' deferred re-arms, one schedule stripe lock hold
	// per stripe per worker, so the next PopDue sees every next boundary.
	for _, b := range batches {
		s.engine.FlushRearms(b)
	}
	flushEnd := time.Now()
	o.stageFlush.Observe(flushEnd.Sub(evalEnd).Nanoseconds())
	// Like the popped stamp, the flush stamp is shared by every span of
	// the step: the schedule re-arms complete once, for the whole batch.
	flushNS := flushEnd.UnixNano()

	// Deliver serially, lane by lane in PopDue's (due, id) order, each lane
	// in ascending period order. Lanes are per subscription, so every
	// subscriber sees its periods in order; the order across subscriptions
	// is deterministic too (it is the pop order, whatever the worker count),
	// and only the service-wide span firehose observes it.
	for _, lane := range outs {
		for i := range lane {
			p := &lane[i]
			if p.expire {
				s.removeSub(p.sub)
			} else {
				p.span.FlushNS = flushNS
				p.sub.deliver(&p.result, &p.span)
			}
		}
	}
	o.stageDeliver.Observe(time.Since(flushEnd).Nanoseconds())
	// Zero the pointer-holding scratch so a burst-sized batch doesn't pin
	// closed subscriptions for the life of the service. Capacities are
	// kept; only the windows used this step hold non-zero data.
	clear(s.batch)
	for i := range outs {
		clear(outs[i])
	}
	return nil
}

// FirehoseSpans appends the service-wide span firehose's buffered period
// spans to buf, oldest first, and returns the result along with the
// lifetime published and dropped span counts as of the snapshot. The
// firehose sees every completed period of every subscription (traced or
// not), ring-buffered to the WithSpanFirehose depth; with the firehose
// disabled it returns buf unchanged and zero counts. Safe for concurrent
// use with a running service.
func (s *Service) FirehoseSpans(buf []PeriodSpan) (spans []PeriodSpan, published, dropped uint64) {
	return s.spans.Snapshot(buf)
}

// removeSub unregisters sub from the service and tears it down. Safe to
// call more than once and from any goroutine.
func (s *Service) removeSub(sub *Subscription) {
	s.mu.Lock()
	delete(s.subs, sub.id)
	s.mu.Unlock()
	sub.close()
}

// Close shuts the service down: every subscription is closed (its Results
// channel drains then ends) and further Subscribe and Advance calls fail.
// Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	subs := make([]*Subscription, 0, len(s.subs))
	for _, sub := range s.subs {
		subs = append(subs, sub)
	}
	clear(s.subs)
	s.mu.Unlock()
	for _, sub := range subs {
		sub.close()
	}
	return nil
}
