// Package livefig runs the temporal figures — churn, prefetch and corridor
// — on the shipping session API. Every arm of a figure is a list of users
// subscribed to a mobiquery.Service on the manual clock, advanced tick by
// tick, and summarized only from what a subscriber can observe: the
// QueryResult stream, Subscription.PrefetchStats and Service.Metrics. So
// each figure digest pins the serving path itself; no planner, corridor or
// engine wiring lives here.
//
// The package imports the root package, which never imports it back.
package livefig

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobiquery"
	"mobiquery/internal/field"
	"mobiquery/internal/geom"
)

// Sensors is the sensor field and engine sizing a figure runs on.
type Sensors struct {
	Seed int64

	// Nodes sensors over a RegionSide × RegionSide square, each refreshing
	// its reading every SamplePeriod (out of phase with one another).
	Nodes        int
	RegionSide   float64
	SamplePeriod time.Duration

	// Shards and Workers size the engine (zero = defaults).
	Shards  int
	Workers int

	// Field is the sensor field sampled during evaluation.
	Field field.Field
}

// network is the service configuration the sensors describe.
func (s Sensors) network() mobiquery.NetworkConfig {
	return mobiquery.NetworkConfig{
		Seed:         s.Seed,
		Nodes:        s.Nodes,
		RegionSide:   s.RegionSide,
		SamplePeriod: s.SamplePeriod,
		Field:        s.Field,
		Service:      mobiquery.ServiceConfig{Shards: s.Shards, Workers: s.Workers},
	}
}

// Contract is the query every user of a figure subscribes with: a circle
// of Radius, one result per Period, due within Deadline slack, from
// readings no staler than Fresh.
type Contract struct {
	Radius   float64
	Period   time.Duration
	Deadline time.Duration
	Fresh    time.Duration
}

// spec is the contract as a session QuerySpec under strategy st.
func (c Contract) spec(st mobiquery.Strategy) mobiquery.QuerySpec {
	return mobiquery.QuerySpec{Radius: c.Radius, Period: c.Period, Deadline: c.Deadline, Freshness: c.Fresh, Strategy: st}
}

// sleepyField is the prefetch and corridor figures' shared field and
// contract: 5k nodes whose 3 s duty cycle dwarfs the 1 s freshness window,
// queried with 1 s periods and 100 ms slack.
func sleepyField() (Sensors, Contract) {
	return Sensors{Seed: 1, Nodes: 5000, RegionSide: 2000, SamplePeriod: 3 * time.Second, Field: gradient},
		Contract{Radius: 150, Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
}

// gradient is every figure's default sensor field.
var gradient = field.Gradient{Base: 20, Slope: geom.V(0.001, 0.002)}

// userRNG is the figures' stream for user placement and courses. The
// service seeds node placement from the same Seed, so the users' stream
// is decorrelated from it rather than retracing the node positions.
func userRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
}

// innerBand is the middle 70% of the region, where mobile users start so
// their courses stay on the field.
func innerBand(side float64) geom.Rect {
	return geom.NewRect(0.15*side, 0.15*side, 0.85*side, 0.85*side)
}

// User is one subscriber of a session run.
type User struct {
	Spec   mobiquery.QuerySpec
	Motion mobiquery.MotionSource
	// Join and Leave bound the membership: the user subscribes at the
	// first step at or after Join and closes after the first step at or
	// after Leave. A zero Leave keeps the user for the whole run.
	Join  time.Duration
	Leave time.Duration
}

// Session is one run: a service over Network whose manual clock is
// advanced by Tick until Duration, with Users joining and leaving.
type Session struct {
	Network  mobiquery.NetworkConfig
	Tick     time.Duration
	Duration time.Duration
	Users    []User
}

// Ledger is what one user observed over a run.
type Ledger struct {
	// Joined and Left report membership: whether the user subscribed, and
	// whether the subscription ended before the run did.
	Joined bool
	Left   bool

	// Periods counts received results; Late and Warmup those flagged so. Contributors, StaleNodes and Prefetched total the
	// results' node counts; StalenessSum their MaxStaleness.
	Periods      int
	Late         int
	Warmup       int
	Contributors int
	StaleNodes   int
	Prefetched   int
	StalenessSum time.Duration

	// Prefetch is the planner ledger as of the user's last step (zero for
	// on-demand specs); PeakOutstanding the largest Outstanding read after
	// any step.
	Prefetch        mobiquery.PrefetchStats
	PeakOutstanding int

	// Digest is an ordered fold of every result the user received: each
	// observable value, never the serve route (CorridorHit, PyramidHit),
	// which must not change them.
	Digest uint64
}

// observe folds one result into the ledger.
func (l *Ledger) observe(r mobiquery.QueryResult) {
	l.Periods++
	l.Contributors += r.Contributors
	l.StaleNodes += r.StaleNodes
	l.Prefetched += r.PrefetchedNodes
	l.StalenessSum += r.MaxStaleness
	if !r.OnTime {
		l.Late++
	}
	var warm uint64
	if r.Warmup {
		l.Warmup++
		warm = 1
	}
	for _, v := range [...]uint64{
		uint64(r.K), math.Float64bits(r.Value), uint64(r.Contributors), uint64(r.AreaNodes),
		uint64(r.StaleNodes), uint64(r.Lateness), uint64(r.MaxStaleness), uint64(r.PrefetchedNodes), warm,
	} {
		l.Digest = l.Digest*1099511628211 ^ v
	}
}

// Run is a session's outcome: one ledger per user, in Session.Users order.
type Run struct {
	Users []Ledger
	// PeakLive is the largest number of concurrent subscriptions.
	PeakLive int
	// Metrics is the closed service's metrics registry.
	Metrics *mobiquery.MetricsRegistry
	Elapsed time.Duration
}

// total folds ledgers into one: counts add (of Prefetch, only the
// Replans and corridor hit and mispredict counters), PeakOutstanding is the
// largest, and Digest combines the per-user digests order-independently,
// each weighted by its 1-based position so users cannot trade results
// unnoticed.
func total(ls []Ledger) Ledger {
	var t Ledger
	for i, l := range ls {
		t.Periods += l.Periods
		t.Late += l.Late
		t.Warmup += l.Warmup
		t.Contributors += l.Contributors
		t.StaleNodes += l.StaleNodes
		t.Prefetched += l.Prefetched
		t.StalenessSum += l.StalenessSum
		t.Prefetch.Replans += l.Prefetch.Replans
		t.Prefetch.CorridorHits += l.Prefetch.CorridorHits
		t.Prefetch.CorridorMispredicts += l.Prefetch.CorridorMispredicts
		t.PeakOutstanding = max(t.PeakOutstanding, l.PeakOutstanding)
		t.Digest += (l.Digest | 1) * uint64(i+1)
	}
	return t
}

// Totals is a figure arm's delivery ledger summed over its users.
type Totals struct {
	// Evaluations counts delivered periods; Late those past the deadline
	// slack; WarmupPeriods those inside an equation-16 warmup interval.
	Evaluations   int
	Late          int
	WarmupPeriods int

	// StaleExclusions counts in-area readings rejected by the freshness
	// window; PrefetchedReadings those served from the plan; MeanStaleness
	// averages each period's oldest contributing reading age.
	StaleExclusions    int
	PrefetchedReadings int
	MeanStaleness      time.Duration

	// Digest is an order-independent digest of every user's ordered
	// per-period results; identical configurations must agree on it
	// regardless of Shards and Workers.
	Digest uint64
}

// totals is the Totals view of a summed ledger.
func (l Ledger) totals() Totals {
	return Totals{
		Evaluations:        l.Periods,
		Late:               l.Late,
		WarmupPeriods:      l.Warmup,
		StaleExclusions:    l.StaleNodes,
		PrefetchedReadings: l.Prefetched,
		MeanStaleness:      l.StalenessSum / time.Duration(max(l.Periods, 1)),
		Digest:             l.Digest,
	}
}

// Run executes the session. Configuration and spec errors come back from
// Open and Subscribe, wrapped.
func (s Session) Run() (Run, error) {
	if s.Tick <= 0 || s.Duration < s.Tick {
		return Run{}, fmt.Errorf("livefig: Tick %v must be positive and Duration %v at least one Tick", s.Tick, s.Duration)
	}
	// The result buffer holds every period one step can complete, so
	// draining after each step never loses a result.
	buffer := 16
	for _, u := range s.Users {
		if u.Spec.Period > 0 {
			buffer = max(buffer, int(s.Tick/u.Spec.Period)+2)
		}
	}
	ctx := context.Background()
	svc, err := mobiquery.Open(ctx, s.Network, mobiquery.WithResultBuffer(buffer),
		mobiquery.WithTraceDepth(0), mobiquery.WithSpanFirehose(0))
	if err != nil {
		return Run{}, fmt.Errorf("livefig: open: %w", err)
	}
	defer svc.Close()

	run := Run{Users: make([]Ledger, len(s.Users)), Metrics: svc.Metrics()}
	live := make([]*mobiquery.Subscription, len(s.Users))
	start := time.Now()
	for now := time.Duration(0); ; {
		nLive := 0
		for i, u := range s.Users {
			l := &run.Users[i]
			if !l.Joined && u.Join <= now {
				sub, err := svc.Subscribe(ctx, u.Spec, u.Motion)
				if err != nil {
					return Run{}, fmt.Errorf("livefig: subscribe user %d: %w", i, err)
				}
				live[i], l.Joined = sub, true
			}
			if live[i] != nil && u.Leave > 0 && u.Leave <= now {
				live[i].Close()
				collect(live[i], l)
				live[i], l.Left = nil, true
			}
			if live[i] != nil {
				nLive++
			}
		}
		run.PeakLive = max(run.PeakLive, nLive)
		if now+s.Tick > s.Duration {
			break
		}
		if err := svc.Advance(s.Tick); err != nil {
			return Run{}, fmt.Errorf("livefig: advance to %v: %w", now+s.Tick, err)
		}
		now += s.Tick
		for i, sub := range live {
			if sub == nil {
				continue
			}
			l := &run.Users[i]
			if st, ok := sub.PrefetchStats(); ok {
				l.Prefetch = st
				l.PeakOutstanding = max(l.PeakOutstanding, st.Outstanding)
			}
			if collect(sub, l) {
				live[i], l.Left = nil, true
			}
		}
	}
	run.Elapsed = time.Since(start)
	return run, nil
}

// collect drains every result sub has buffered into l, reporting whether
// the stream has ended (Close, or the spec's Lifetime).
func collect(sub *mobiquery.Subscription, l *Ledger) (ended bool) {
	for {
		select {
		case r, ok := <-sub.Results():
			if !ok {
				return true
			}
			l.observe(r)
		default:
			return false
		}
	}
}
