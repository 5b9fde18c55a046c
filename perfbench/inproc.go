package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery"
)

// The in-process workloads drive a Service on a manual clock in a closed
// loop: one goroutine calls Advance(tick), then drains the Results of every
// subscription that came due on that step, then (predictive-churn only)
// replaces the subscriptions that expired. Subscriptions created after the
// same number of steps share a period phase, so the benchmark keeps them in
// one bucket and drains exactly the bucket that is due.
const tick = 20 * time.Millisecond

// inprocSpec fixes one in-process workload's shape.
type inprocSpec struct {
	nodes   int
	region  float64
	sample  time.Duration
	period  time.Duration
	live    int // subscriptions kept live
	prefix  int // timed steps whose results the digest covers
	churn   bool
	workers int // ServiceConfig.Workers (0 = one per core)
	traced  bool
}

func denseSpec() inprocSpec {
	return inprocSpec{nodes: 5000, region: 2000, sample: time.Second, period: time.Second,
		live: 100_000, prefix: 50}
}

func churnSpec() inprocSpec {
	return inprocSpec{nodes: 5000, region: 2000, sample: 3 * time.Second, period: 200 * time.Millisecond,
		live: 6000, prefix: 250, churn: true}
}

// buckets is the number of distinct period phases: one per step of a period.
func (w inprocSpec) buckets() int { return int(w.period / tick) }

// churnLifetime is a replacement subscription's lifetime.
const churnLifetime = 4 * time.Second

// entry is one live subscription as the benchmark tracks it.
type entry struct {
	sub  *mobiquery.Subscription
	n    int // global subscription index (the digest's subscription key)
	next int // next expected period index
	want int // periods the lifetime allows (0 = unbounded)
	jit  bool
}

// world is one opened service plus the benchmark's view of it.
type world struct {
	spec    inprocSpec
	seed    int64
	svc     *mobiquery.Service
	rng     *rand.Rand
	buckets [][]*entry
	steps   int // Advance calls since Open
	nextN   int

	// subscribe-call latencies and the prefetch ledgers of closed
	// subscriptions, folded in when they expire.
	subLat  *samples
	closedP mobiquery.PrefetchStats
	jitSubs int
}

func openWorld(ctx context.Context, spec inprocSpec, seed int64) (*world, error) {
	nc := mobiquery.NetworkConfig{
		Seed: seed, Nodes: spec.nodes, RegionSide: spec.region, SamplePeriod: spec.sample,
		Field:   mobiquery.PlumeField(mobiquery.Pt(spec.region/2, spec.region/2), 50, spec.region/5, 0.5, 0.2),
		Service: mobiquery.ServiceConfig{Workers: spec.workers},
	}
	svc, err := mobiquery.Open(ctx, nc)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return &world{
		spec: spec, seed: seed, svc: svc,
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		buckets: make([][]*entry, spec.buckets()),
		subLat:  newSamples(spec.live + 64),
	}, nil
}

// setup opens the service and subscribes the initial population, spread
// evenly over one period's worth of steps so every step has the same
// number of subscriptions due. It stops one step short of the first due
// boundary: nothing is evaluated during set-up.
func setup(ctx context.Context, spec inprocSpec, seed int64, log *spanLog) (*world, error) {
	w, err := openWorld(ctx, spec, seed)
	if err != nil {
		return nil, err
	}
	nb := spec.buckets()
	per := spec.live / nb
	for b := 0; b < nb; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			lifetime := time.Duration(0)
			if spec.churn {
				// Stagger the initial population's expiries over one
				// lifetime so replacements arrive at a steady rate.
				lifetime = spec.period * time.Duration(1+(b*per+i)%int(churnLifetime/spec.period))
			}
			if err := w.subscribe(ctx, lifetime, 0, log); err != nil {
				w.svc.Close()
				return nil, err
			}
		}
		log.record(0, uint64(b), "setup_subscribe_bucket", start, time.Now())
		if b < nb-1 {
			if err := w.advance(); err != nil {
				w.svc.Close()
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *world) advance() error {
	if err := w.svc.Advance(tick); err != nil {
		return fmt.Errorf("advance: %w", err)
	}
	w.steps++
	return nil
}

// subscribe opens subscription w.nextN in the bucket of the current step.
// On predictive-churn the index picks one of three serve paths in turn:
// JIT plus corridor on a GPS-predicted random course, a 600 m on-demand
// query (pyramid), and a Window 4 on-demand query (pyramid).
func (w *world) subscribe(ctx context.Context, lifetime time.Duration, parent int, log *spanLog) error {
	n := w.nextN
	w.nextN++
	rng := w.rng
	spec := mobiquery.QuerySpec{
		Radius:    100 + 80*rng.Float64(),
		Period:    w.spec.period,
		Deadline:  100 * time.Millisecond,
		Freshness: w.spec.period,
		Lifetime:  lifetime,
	}
	side := w.spec.region
	start := mobiquery.Pt(side*(0.1+0.8*rng.Float64()), side*(0.1+0.8*rng.Float64()))
	heading, speed := 2*math.Pi*rng.Float64(), 1+3*rng.Float64()
	var src mobiquery.MotionSource = mobiquery.LinearMotion(start, speed*math.Cos(heading), speed*math.Sin(heading))
	jit := false
	if w.spec.churn {
		switch n % 3 {
		case 0:
			jit = true
			spec.Strategy = mobiquery.JITStrategy()
			spec.Freshness = time.Second
			spec.Corridor = mobiquery.CorridorSpec{Lookahead: 3,
				ErrorModel: mobiquery.ErrorModel{Base: 5}}
			ps, err := mobiquery.GPSPredictedMotion(
				mobiquery.CourseConfig{Seed: rng.Int63(), RegionSide: side, Start: start,
					SpeedMin: 1, SpeedMax: 4, ChangeInterval: time.Second, Duration: 2 * churnLifetime},
				mobiquery.GPSConfig{Seed: rng.Int63(), Sampling: 100 * time.Millisecond, Error: 5})
			if err != nil {
				return fmt.Errorf("course %d: %w", n, err)
			}
			src = ps
		case 1:
			spec.Radius = 600
			start = mobiquery.Pt(side*(0.35+0.3*rng.Float64()), side*(0.35+0.3*rng.Float64()))
			src = mobiquery.LinearMotion(start, speed*math.Cos(heading), speed*math.Sin(heading))
		case 2:
			spec.Window = 4
		}
	}
	if w.spec.traced {
		spec.Trace = mobiquery.TraceID(mix(uint64(w.seed)<<32^uint64(n)) | 1)
	}
	t0 := time.Now()
	sub, err := w.svc.Subscribe(ctx, spec, src)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("subscribe %d: %w", n, err)
	}
	w.subLat.add(t1.Sub(t0))
	log.record(parent, uint64(n), "subscribe", t0, t1)
	e := &entry{sub: sub, n: n, next: 1, jit: jit}
	if lifetime > 0 {
		e.want = int(lifetime / w.spec.period)
	}
	if jit {
		w.jitSubs++
	}
	b := w.steps % len(w.buckets)
	w.buckets[b] = append(w.buckets[b], e)
	return nil
}

// prefetchTotals sums the planner and corridor ledgers of every JIT
// subscription opened so far, live or closed.
func (w *world) prefetchTotals() mobiquery.PrefetchStats {
	tot := w.closedP
	for _, b := range w.buckets {
		for _, e := range b {
			if e.jit {
				addPrefetch(&tot, e.sub)
			}
		}
	}
	return tot
}

func addPrefetch(tot *mobiquery.PrefetchStats, sub *mobiquery.Subscription) {
	st, ok := sub.PrefetchStats()
	if !ok {
		return
	}
	tot.Replans += st.Replans
	tot.Served += st.Served
	tot.CorridorHits += st.CorridorHits
	tot.CorridorMisses += st.CorridorMisses
	tot.CorridorMispredicts += st.CorridorMispredicts
	tot.CorridorStaged += st.CorridorStaged
}

// stepTally is what one timed phase observed.
type stepTally struct {
	steps, results, attempted, failed int
	areaNodes                         int64
	wall                              time.Duration
	// progress is the cumulative results and elapsed time after each step.
	progress            []progress
	prefixDigest        digest
	step, lateness, lag *samples
	segs                *segments
}

type progress struct {
	results int
	at      time.Duration
}

// rateChunks is how many equal stretches of the timed phase periods_per_s
// is the median over, so a transient stall of the host moves one stretch
// rather than the run's figure.
const rateChunks = 3

// rate is the median over rateChunks equal stretches of wall time of the
// periods delivered per second.
func (t *stepTally) rate() float64 {
	var rates []float64
	prev := progress{}
	for c := 1; c <= rateChunks; c++ {
		end := t.wall * time.Duration(c) / rateChunks
		i := 0
		for i < len(t.progress)-1 && t.progress[i].at < end {
			i++
		}
		if cur := t.progress[i]; cur.at > prev.at {
			rates = append(rates, float64(cur.results-prev.results)/(cur.at-prev.at).Seconds())
			prev = cur
		}
	}
	return median(rates)
}

// run drives timed steps until d has elapsed (and at least the digest
// prefix has run), checking every due subscription delivers exactly its
// next period, and folding the prefix's results into the digest. atPrefix
// runs once, right after the last prefix step, for the deterministic
// ledger snapshot.
func (w *world) run(ctx context.Context, d time.Duration, log *spanLog, atPrefix func()) (*stepTally, error) {
	// Reserve for a few hundred steps; longer runs grow the sample sets,
	// a cost of well under one allocation per period.
	perStep := w.spec.live / len(w.buckets)
	estSteps := w.spec.prefix + 512
	t := &stepTally{
		step:     newSamples(estSteps),
		lag:      newSamples(estSteps),
		lateness: newSamples(estSteps * perStep),
	}
	if w.spec.traced {
		t.segs = newSegments()
	}
	var expired []*entry
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < w.spec.prefix || time.Now().Before(deadline); i++ {
		stepStart := time.Now()
		if err := w.advance(); err != nil {
			return nil, err
		}
		advEnd := time.Now()
		req := uint64(w.steps) | 1<<63
		b := w.steps % len(w.buckets)
		due := w.buckets[b]
		keep := due[:0]
		expired = expired[:0]
		for _, e := range due {
			got, closed := 0, false
		drain:
			for {
				select {
				case r, ok := <-e.sub.Results():
					if !ok {
						closed = true
						break drain
					}
					recv := time.Now()
					got++
					if r.K != e.next {
						t.failed++ // gap or reorder
					}
					e.next = r.K + 1
					if i < w.spec.prefix {
						t.prefixDigest.fold(e.n, &r)
					}
					t.results++
					t.areaNodes += int64(r.AreaNodes)
					t.lateness.add(recv.Sub(stepStart))
					if t.segs != nil && r.Trace != nil {
						t.segs.add(r.Trace, recv.UnixNano())
					}
				default:
					break drain
				}
			}
			t.attempted++
			if got != 1 {
				t.failed++ // missing, or more than one period per step
			}
			if closed {
				if e.want == 0 || e.next-1 != e.want {
					t.failed++ // the stream ended early
				}
				expired = append(expired, e)
				continue
			}
			keep = append(keep, e)
		}
		w.buckets[b] = keep
		drainEnd := time.Now()
		stepSpan := log.record(0, req, "step", stepStart, drainEnd)
		log.record(stepSpan, req, "advance", stepStart, advEnd)
		log.record(stepSpan, req, "drain", advEnd, drainEnd)
		t.step.add(drainEnd.Sub(stepStart))
		var subTime time.Duration
		for _, e := range expired {
			if e.jit {
				addPrefetch(&w.closedP, e.sub)
			}
			s0 := time.Now()
			if err := w.subscribe(ctx, churnLifetime, 0, log); err != nil {
				return nil, err
			}
			subTime += time.Since(s0)
		}
		if i == w.spec.prefix-1 && atPrefix != nil {
			atPrefix()
		}
		t.steps++
		t.progress = append(t.progress, progress{results: t.results, at: time.Since(start)})
		// The benchmark's own time this step: everything but the calls into
		// the service (Advance, Results receives, Subscribe).
		t.lag.add(time.Since(stepStart) - drainEnd.Sub(stepStart) - subTime)
	}
	t.wall = time.Since(start)
	return t, nil
}
