package mobiquery

import (
	"runtime"
	"strconv"
	"time"

	"mobiquery/internal/core"
	"mobiquery/internal/obs"
)

// MetricsRegistry is the service's metrics registry (see Service.Metrics):
// internal/obs.Registry re-exported so front-ends outside the module
// internals (internal/server, custom embedders) can register their own
// families into the same /metrics exposition.
type MetricsRegistry = obs.Registry

// PeriodSpan is one traced subscription period's lifecycle record (see
// Subscription.TraceSpans): stage timestamps from armed through
// delivered/dropped, the serve class, and the outcome.
type PeriodSpan = obs.PeriodSpan

// TraceID is a caller-minted trace context identifying one subscription's
// causal trace across tiers (QuerySpec.Trace); zero means untraced.
type TraceID = obs.TraceID

// SpanID identifies one period's span within a trace; see MintSpanID.
type SpanID = obs.SpanID

// MintSpanID derives the deterministic span id for period k of a trace —
// both tiers (and offline validators) recompute it rather than carry it.
func MintSpanID(t TraceID, k int) SpanID { return obs.MintSpanID(t, k) }

// Metrics returns the service's metrics registry. Every Service carries
// one; render it with WritePrometheus (the server's GET /metrics does).
// The registry is safe for concurrent use, and additional families may be
// registered into it at any time.
func (s *Service) Metrics() *MetricsRegistry { return s.obs.reg }

// svcObs is the service's instrumentation: every hot-path metric is
// registered once at Open, so the record paths are bare atomic updates —
// Advance at one million idle subscribers stays 0-alloc with all of this
// enabled (bench-idle-1m is the proof).
type svcObs struct {
	reg *obs.Registry

	// Advance stage timings and tick counters (recorded live in Advance).
	ticks        *obs.Counter
	idleTicks    *obs.Counter
	stagePop     *obs.Histogram
	stageEval    *obs.Histogram
	stageFlush   *obs.Histogram
	stageDeliver *obs.Histogram
	popBatch     *obs.Histogram
	mergeDepth   *obs.Histogram

	// Per-serve-class evaluation ledger (recorded live in collectDue). The
	// classes partition evaluated periods: their counters sum to
	// delivered + dropped, which the loopback reconciliation test pins.
	classCount [obs.NumClasses]*obs.Counter
	classEval  [obs.NumClasses]*obs.Histogram

	// scratch is the reused ServiceStats snapshot behind the OnScrape
	// sampler (StatsInto keeps its StripeLens capacity), guarded by the
	// registry lock all OnScrape hooks run under.
	scratch ServiceStats
}

// obsMaxStage bounds the stage-latency histograms: anything past ~64 s of
// wall time in one stage lands in the +Inf bucket.
const obsMaxStage = int64(64 * time.Second)

// newSvcObs registers the service's metric families and the scrape-time
// ledger sampler. Called once from Open, after the engine exists.
func newSvcObs(s *Service) *svcObs {
	reg := obs.NewRegistry()
	o := &svcObs{reg: reg}

	o.ticks = reg.Counter("mobiquery_advance_ticks_total", "",
		"Advance calls (clock steps), idle or not")
	o.idleTicks = reg.Counter("mobiquery_advance_idle_ticks_total", "",
		"Advance calls on which no period was due")
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("mobiquery_advance_stage_seconds", `stage="`+name+`"`,
			"wall time per Advance stage: pop (due-batch collection), evaluate (fan-out), flush (schedule re-arms), deliver (channel sends, lane by lane in pop order)",
			obsMaxStage, 1e-9)
	}
	o.stagePop = stage("pop")
	o.stageEval = stage("evaluate")
	o.stageFlush = stage("flush")
	o.stageDeliver = stage("deliver")
	o.popBatch = reg.Histogram("mobiquery_advance_pop_batch", "",
		"subscriptions popped due per non-empty Advance step", 1<<21, 1)
	o.mergeDepth = reg.Histogram("mobiquery_advance_merge_depth", "",
		"scheduler stripes contributing to each non-empty PopDue (k of its k-way stripe merge)", 64, 1)

	for c := obs.Class(0); c < obs.NumClasses; c++ {
		lbl := `class="` + c.String() + `"`
		o.classCount[c] = reg.Counter("mobiquery_periods_evaluated_total", lbl,
			"periods evaluated by serve class; classes partition, so the sum equals delivered + dropped")
		o.classEval[c] = reg.Histogram("mobiquery_evaluate_seconds", lbl,
			"per-period engine evaluation latency by serve class", obsMaxStage, 1e-9)
	}

	// The delivery ledger and scheduler shape are sampled just in time for
	// each scrape from the same StatsInto snapshot /v1/stats is served
	// from, so the two surfaces always reconcile exactly.
	nowG := reg.Gauge("mobiquery_virtual_time_ns", "", "service virtual clock, nanoseconds")
	nodesG := reg.Gauge("mobiquery_nodes", "", "sensor nodes in the field")
	subsG := reg.Gauge("mobiquery_subscribers", "", "live subscriptions")
	drainG := reg.Gauge("mobiquery_draining", "", "1 while the service is draining")
	opened := reg.Counter("mobiquery_subscriptions_opened_total", "", "subscriptions opened over the service lifetime")
	closed := reg.Counter("mobiquery_subscriptions_closed_total", "", "subscriptions closed over the service lifetime")
	delivered := reg.Counter("mobiquery_results_delivered_total", "", "results handed to subscriber channels")
	dropped := reg.Counter("mobiquery_results_dropped_total", "", "results discarded against full subscriber buffers")
	late := reg.Counter("mobiquery_results_late_total", "", "results delivered past their deadline slack")
	pyrClassesG := reg.Gauge("mobiquery_pyramid_classes", "", "aggregate-pyramid boundary classes instantiated")
	pyrServes := reg.Counter("mobiquery_pyramid_serves_total", "", "periods answered from the aggregate tile pyramid")
	pyrBuilds := reg.Counter("mobiquery_pyramid_builds_total", "", "pyramid epoch ingests")
	stripesG := reg.Gauge("mobiquery_sched_stripes", "", "due-period scheduler stripe count")
	schedLenG := reg.Gauge("mobiquery_sched_entries", "", "armed schedule entries (one per live temporal query)")
	stripeG := make([]*obs.Gauge, s.engine.ScheduleStats().Stripes)
	for i := range stripeG {
		stripeG[i] = reg.Gauge("mobiquery_sched_stripe_entries",
			`stripe="`+strconv.Itoa(i)+`"`, "armed schedule entries per stripe (balance under load)")
	}

	// Go runtime self-metrics and the span-firehose ledger ride the same
	// scrape-time sampler: sampled just in time for each scrape, costing
	// the running service nothing between scrapes.
	heapG := reg.Gauge("mobiquery_go_heap_inuse_bytes", "", "heap bytes in in-use spans (runtime MemStats HeapInuse)")
	gcPause := reg.Counter("mobiquery_go_gc_pause_ns_total", "", "cumulative GC stop-the-world pause, nanoseconds")
	goroutinesG := reg.Gauge("mobiquery_go_goroutines", "", "live goroutines")
	gomaxprocsG := reg.Gauge("mobiquery_go_gomaxprocs", "", "effective GOMAXPROCS")
	buildInfo := reg.Gauge("mobiquery_build_info",
		`go_version="`+runtime.Version()+`",module="mobiquery"`,
		"constant 1, labeled with build metadata")
	buildInfo.Set(1)
	spansPub := reg.Counter("mobiquery_trace_spans_published_total", "",
		"period spans published to the service span firehose")
	spansDrop := reg.Counter("mobiquery_trace_spans_dropped_total", "",
		"firehose spans overwritten before any reader snapshotted them")

	var ms runtime.MemStats
	reg.OnScrape(func() {
		runtime.ReadMemStats(&ms)
		heapG.Set(int64(ms.HeapInuse))
		gcPause.Set(ms.PauseTotalNs)
		goroutinesG.Set(int64(runtime.NumGoroutine()))
		gomaxprocsG.Set(int64(runtime.GOMAXPROCS(0)))
		pub, drop := s.spans.Counts()
		spansPub.Set(pub)
		spansDrop.Set(drop)
	})

	reg.OnScrape(func() {
		st := &o.scratch
		s.StatsInto(st)
		nowG.Set(int64(st.Now))
		nodesG.Set(int64(st.Nodes))
		subsG.Set(int64(st.Subscribers))
		if st.Draining {
			drainG.Set(1)
		} else {
			drainG.Set(0)
		}
		opened.Set(st.Opened)
		closed.Set(st.Closed)
		delivered.Set(st.Delivered)
		dropped.Set(st.Dropped)
		late.Set(st.Late)
		pyrClassesG.Set(int64(st.PyramidClasses))
		pyrServes.Set(st.PyramidServes)
		pyrBuilds.Set(st.PyramidBuilds)
		stripesG.Set(int64(st.SchedStripes))
		schedLenG.Set(int64(st.SchedLen))
		for i, n := range st.SchedStripeLens {
			stripeG[i].Set(int64(n))
		}
	})
	return o
}

// StatsInto is Stats writing into a caller-owned snapshot, reusing its
// SchedStripeLens capacity — the allocation-free form for callers that
// snapshot repeatedly (the metrics scrape sampler, the /v1/stats handler).
// Everything else about the snapshot matches Stats exactly.
func (s *Service) StatsInto(st *ServiceStats) {
	s.mu.RLock()
	st.Now = s.now
	st.Subscribers = len(s.subs)
	st.Draining = s.draining
	pt, classes := s.pyramidTotalsLocked()
	st.PyramidClasses = classes
	st.PyramidServes = pt.Served
	st.PyramidBuilds = pt.Builds
	s.mu.RUnlock()
	st.Nodes = s.engine.NodeCount()
	st.Opened = s.totOpened.Load()
	st.Closed = s.totClosed.Load()
	st.Delivered = s.totDelivered.Load()
	st.Dropped = s.totDropped.Load()
	st.Late = s.totLate.Load()
	var ss core.ScheduleStats
	ss.StripeLens = st.SchedStripeLens[:0]
	s.engine.ScheduleStatsInto(&ss)
	st.SchedStripes = ss.Stripes
	st.SchedLen = ss.Len
	st.SchedStripeLens = ss.StripeLens
	st.SchedMergeDepth = ss.LastMergeDepth
}
