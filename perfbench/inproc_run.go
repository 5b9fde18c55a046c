package main

import (
	"context"
	"fmt"
	"time"

	"mobiquery"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// layerSnap is the service registry state at one instant: the Advance
// stage histograms, the due-batch and merge-depth histograms, and the
// per-class evaluation ledger, plus the process runtime counters.
type layerSnap struct {
	stage      map[string]histSnap
	popBatch   histSnap
	merge      histSnap
	classEval  map[string]histSnap
	classCount map[string]uint64
	proc       procStats
}

var stageNames = []string{"pop", "evaluate", "flush", "deliver"}

func snapLayers(svc *mobiquery.Service) layerSnap {
	reg := svc.Metrics()
	s := layerSnap{stage: map[string]histSnap{}, classEval: map[string]histSnap{}, classCount: map[string]uint64{}}
	for _, st := range stageNames {
		s.stage[st] = snapHist(reg.Histogram("mobiquery_advance_stage_seconds", `stage="`+st+`"`, "", 0, 0))
	}
	s.popBatch = snapHist(reg.Histogram("mobiquery_advance_pop_batch", "", "", 0, 0))
	s.merge = snapHist(reg.Histogram("mobiquery_advance_merge_depth", "", "", 0, 0))
	for _, c := range classNames {
		lbl := `class="` + c + `"`
		s.classEval[c] = snapHist(reg.Histogram("mobiquery_evaluate_seconds", lbl, "", 0, 0))
		s.classCount[c] = reg.Counter("mobiquery_periods_evaluated_total", lbl, "").Load()
	}
	s.proc = readProc()
	return s
}

// phaseOut is one measured phase of an in-process run.
type phaseOut struct {
	tally         *stepTally
	before, after layerSnap
	subLat        *samples
	dropped       uint64
	// Deterministic ledgers as of the end of the digest prefix.
	prefixClass map[string]uint64
	pyr         mobiquery.PyramidStats
	pf          mobiquery.PrefetchStats
	jitSubs     int
}

func (o *phaseOut) pps() float64 { return o.tally.rate() }

// setUp sets the workload up reps times and keeps the last: the set-up
// durations in seconds, and the live heap per subscription it added.
func setUp(ctx context.Context, spec inprocSpec, seed int64, reps int, log *spanLog) (*world, []float64, float64, error) {
	var w *world
	subLat := newSamples(reps * (spec.live + 64))
	var times []float64
	var heapPerSub float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.svc.Close()
			w = nil
		}
		base := heapAfterGC()
		start := time.Now()
		var err error
		if w, err = setup(ctx, spec, seed, log); err != nil {
			return nil, nil, 0, err
		}
		subLat.v = append(subLat.v, w.subLat.v...)
		times = append(times, time.Since(start).Seconds())
		heapPerSub = float64(int64(heapAfterGC())-int64(base)) / float64(spec.live)
	}
	// Subscribe latencies pool over every set-up: on dense-ondemand they
	// are the only subscribes, and one set-up's GC timing skews them.
	w.subLat = subLat
	return w, times, heapPerSub, nil
}

// measure runs w's timed phase for d and collects the phase's ledgers.
func measure(ctx context.Context, w *world, d time.Duration, log *spanLog) (*phaseOut, error) {
	if w.spec.churn {
		w.subLat = newSamples(int(d/time.Millisecond) * 2)
	}
	o := &phaseOut{before: snapLayers(w.svc)}
	tally, err := w.run(ctx, d, log, func() {
		o.prefixClass = snapLayers(w.svc).classCount
		o.pyr, _ = w.svc.PyramidStats()
		o.pf = w.prefetchTotals()
		o.jitSubs = w.jitSubs
	})
	if err != nil {
		return nil, err
	}
	o.after = snapLayers(w.svc)
	o.tally, o.subLat, o.dropped = tally, w.subLat, w.svc.Stats().Dropped
	return o, nil
}

// checkDigest compares a phase's prefix digest with the one recorded for
// this seed, or, for a seed with no record, with a reference run of the
// prefix on a single worker.
func checkDigest(ctx context.Context, p params, spec inprocSpec, got digest) (bool, error) {
	if want, ok := recordedDigest(p.workload, p.seed); ok {
		if got.String() != want {
			note("%s seed %d: prefix digest %s, recorded %s", p.workload, p.seed, got, want)
			return false, nil
		}
		return true, nil
	}
	want, err := referenceDigest(ctx, spec, p.seed)
	if err != nil {
		return false, err
	}
	if got != want {
		note("%s seed %d: prefix digest %s, single-worker reference %s", p.workload, p.seed, got, want)
	}
	return got == want, nil
}

// referenceDigest runs only the digest prefix, on one worker.
func referenceDigest(ctx context.Context, spec inprocSpec, seed int64) (digest, error) {
	spec.workers = 1
	return prefixDigest(ctx, spec, seed)
}

// prefixDigest sets spec up untraced and runs only the digest prefix.
func prefixDigest(ctx context.Context, spec inprocSpec, seed int64) (digest, error) {
	spec.traced = false
	w, err := setup(ctx, spec, seed, nil)
	if err != nil {
		return 0, err
	}
	defer w.svc.Close()
	t, err := w.run(ctx, 0, nil, nil)
	if err != nil {
		return 0, err
	}
	if t.failed != 0 {
		return 0, fmt.Errorf("digest prefix: %d failed periods", t.failed)
	}
	return t.prefixDigest, nil
}

func runInproc(ctx context.Context, p params, log *spanLog) (*result, error) {
	spec := denseSpec()
	if p.workload == "predictive-churn" {
		spec = churnSpec()
	}
	if !p.trace {
		return e2eInproc(ctx, p, spec)
	}
	return layersInproc(ctx, p, spec, log)
}

// e2eInproc is the untraced run: the end-to-end metrics.
func e2eInproc(ctx context.Context, p params, spec inprocSpec) (*result, error) {
	w, setups, heapPerSub, err := setUp(ctx, spec, p.seed, setupReps, nil)
	if err != nil {
		return nil, err
	}
	subLat := w.subLat // dense-ondemand subscribes only during set-up
	o, err := measure(ctx, w, p.seconds, nil)
	w.svc.Close()
	if err != nil {
		return nil, err
	}
	if spec.churn {
		subLat = o.subLat
	}
	res := &result{Attempted: o.tally.attempted, Failed: o.tally.failed + int(o.dropped), Metrics: &metricSet{}}
	if res.Correct, err = checkDigest(ctx, p, spec, o.tally.prefixDigest); err != nil {
		return nil, err
	}
	res.Correct = res.Correct && res.Failed == 0
	t := o.tally
	note("%s: %d steps, %d results in %.2fs; step n=%d, lateness n=%d, subscribe n=%d",
		p.workload, t.steps, t.results, t.wall.Seconds(), t.step.n(), t.lateness.n(), subLat.n())
	m := res.Metrics
	m.add("setup_s", median(setups), "s")
	m.add("periods_per_s", o.pps(), "1/s")
	m.add("step_p50_ms", t.step.ms(0.5), "ms")
	m.add("lateness_p50_ms", t.lateness.ms(0.5), "ms")
	m.add("subscribe_p50_ms", subLat.ms(0.5), "ms")
	m.add("heap_bytes_per_sub", heapPerSub, "B")
	return res, nil
}

// layersInproc is the diagnostic run: phase A untraced with the default
// worker pool (the per-layer costs), on dense-ondemand phase B the same
// on one worker (parallel speed-up, and the digest must not change), and
// phase C with every subscription traced (segment self times and the
// tracing overhead). Each phase sets up once and measures a share of the
// run's seconds.
func layersInproc(ctx context.Context, p params, spec inprocSpec, log *spanLog) (*result, error) {
	phases := 2
	if !spec.churn {
		phases = 3
	}
	d := p.seconds / time.Duration(phases)
	run := func(spec inprocSpec, log *spanLog) (*phaseOut, error) {
		w, _, _, err := setUp(ctx, spec, p.seed, 1, log)
		if err != nil {
			return nil, err
		}
		defer w.svc.Close()
		return measure(ctx, w, d, log)
	}
	a, err := run(spec, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: a.tally.attempted, Failed: a.tally.failed + int(a.dropped), Metrics: &metricSet{}}
	if res.Correct, err = checkDigest(ctx, p, spec, a.tally.prefixDigest); err != nil {
		return nil, err
	}
	speedup := 0.0
	if !spec.churn {
		serial := spec
		serial.workers = 1
		b, err := run(serial, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted += b.tally.attempted
		res.Failed += b.tally.failed + int(b.dropped)
		if b.tally.prefixDigest != a.tally.prefixDigest {
			note("Workers:1 digest %s differs from the default pool's %s", b.tally.prefixDigest, a.tally.prefixDigest)
			res.Correct = false
		}
		speedup = a.pps() / b.pps()
	}
	traced := spec
	traced.traced = true
	c, err := run(traced, log)
	if err != nil {
		return nil, err
	}
	res.Attempted += c.tally.attempted
	res.Failed += c.tally.failed + int(c.dropped)
	if c.tally.prefixDigest != a.tally.prefixDigest {
		note("traced digest %s differs from the untraced %s", c.tally.prefixDigest, a.tally.prefixDigest)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0

	m := res.Metrics
	t := a.tally
	results := float64(t.results)
	stage := func(name string) histSnap { return a.after.stage[name].since(a.before.stage[name]) }
	pop, flush := stage("pop"), stage("flush")
	m.add("mobiquery.pop_us_per_step", ratio(float64(pop.sum), float64(pop.count()))/1e3, "us")
	m.add("mobiquery.evaluate_us_per_period", ratio(float64(stage("evaluate").sum), results)/1e3, "us")
	m.add("mobiquery.flush_us_per_step", ratio(float64(flush.sum), float64(flush.count()))/1e3, "us")
	m.add("mobiquery.deliver_us_per_period", ratio(float64(stage("deliver").sum), results)/1e3, "us")
	batch, merge := a.after.popBatch.since(a.before.popBatch), a.after.merge.since(a.before.merge)
	m.add("mobiquery.due_per_step", ratio(float64(batch.sum), float64(batch.count())), "count")
	m.add("core.merge_depth_mean", ratio(float64(merge.sum), float64(merge.count())), "count")
	m.add("geom.area_nodes_per_period", ratio(float64(t.areaNodes), results), "count")
	pa, pb := a.before.proc, a.after.proc
	m.add("mobiquery.allocs_per_period", ratio(float64(pb.mallocs-pa.mallocs), results), "count")
	m.add("mobiquery.bytes_per_period", ratio(float64(pb.bytes-pa.bytes), results), "B")
	m.add("mobiquery.gc_cpu_fraction", ratio(pb.gcCPU-pa.gcCPU, pb.allCPU-pa.allCPU), "ratio")
	m.add("mobiquery.parallel_speedup", speedup, "x")
	m.add("mobiquery.subscribe_us_p50", a.subLat.us(0.5), "us")
	m.add("mobiquery.subscribe_us_p99", a.subLat.us(0.99), "us")
	for _, cl := range classNames {
		h := a.after.classEval[cl].since(a.before.classEval[cl])
		m.add("eval."+cl+"_us_p50", h.quantile(0.5)/1e3, "us")
		m.add("eval."+cl+"_periods", float64(a.prefixClass[cl]-a.before.classCount[cl]), "count")
	}
	addPredictionLedgers(m, a.pyr, a.pf, a.jitSubs)
	c.tally.segs.report(m)
	m.add("wire.decode_us_per_frame", 0, "us")
	m.add("wire.encode_us_per_frame", 0, "us")
	m.add("server.advance_rtt_ms_p99", 0, "ms")
	m.add("server.heap_inuse_bytes", 0, "B")
	m.add("gen.connections", 0, "count")
	m.add("gen.lag_ms_p99", t.lag.ms(0.99), "ms")
	m.add("obs.trace_overhead_pct", 100*(c.tally.step.ms(0.5)/t.step.ms(0.5)-1), "%")
	addTails(m, t.step, t.lateness, a.subLat)
	return res, nil
}

// addPredictionLedgers reports the corridor, planner and pyramid ledgers
// as of the end of the digest prefix: exact counts that repeat for a seed.
func addPredictionLedgers(m *metricSet, pyr mobiquery.PyramidStats, pf mobiquery.PrefetchStats, jitSubs int) {
	m.add("corridor.hits", float64(pf.CorridorHits), "count")
	m.add("corridor.mispredicts", float64(pf.CorridorMispredicts), "count")
	m.add("corridor.hit_ratio", ratio(float64(pf.CorridorHits), float64(pf.CorridorHits+pf.CorridorMisses)), "ratio")
	m.add("corridor.staged_per_hit", ratio(float64(pf.CorridorStaged), float64(pf.CorridorHits)), "count")
	m.add("prefetch.replans", float64(pf.Replans), "count")
	m.add("prefetch.replans_per_sub", ratio(float64(pf.Replans), float64(jitSubs)), "count")
	m.add("pyramid.serves", float64(pyr.Served), "count")
	m.add("pyramid.builds", float64(pyr.Builds), "count")
	miss := pyr.MissNoEpoch + pyr.MissFreshness + pyr.MissVersion
	m.add("pyramid.serve_ratio", ratio(float64(pyr.Served), float64(pyr.Served+miss)), "ratio")
	m.add("pyramid.visit_advantage", ratio(float64(pyr.ServedAreaNodes), float64(pyr.NodesIngested+pyr.FringeNodes)), "x")
}

// addTails reports the sample counts behind the step, lateness and
// subscribe timings, and their p99s, kept out of the end-to-end set
// because they do not repeat within a tenth from run to run (serve-h2's
// moved by a factor of two between runs of one seed).
func addTails(m *metricSet, step, lateness, subscribe *samples) {
	m.add("tail.step_p99_ms", step.ms(0.99), "ms")
	m.add("tail.lateness_p99_ms", lateness.ms(0.99), "ms")
	m.add("tail.subscribe_p99_ms", subscribe.ms(0.99), "ms")
	m.add("samples.step", float64(step.n()), "count")
	m.add("samples.lateness", float64(lateness.n()), "count")
	m.add("samples.subscribe", float64(subscribe.n()), "count")
}
