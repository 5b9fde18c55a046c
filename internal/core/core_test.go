package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/mac"
	"mobiquery/internal/mobility"
	"mobiquery/internal/netstack"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

func sec(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

func TestAggKind(t *testing.T) {
	names := map[AggKind]string{
		AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggAvg: "avg",
	}
	for k, want := range names {
		if k.String() != want || !k.Valid() {
			t.Errorf("AggKind %d: String=%q Valid=%v", k, k.String(), k.Valid())
		}
	}
	if AggKind(0).Valid() || AggKind(99).Valid() {
		t.Error("invalid kinds reported valid")
	}
	if AggKind(99).String() != "AggKind(99)" {
		t.Errorf("unknown kind String = %q", AggKind(99).String())
	}
}

func validSpec() QuerySpec {
	return QuerySpec{
		Agg:      AggAvg,
		Radius:   150,
		Period:   2 * time.Second,
		Fresh:    time.Second,
		Lifetime: 60 * time.Second,
	}
}

func TestQuerySpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*QuerySpec)
	}{
		{"bad agg", func(s *QuerySpec) { s.Agg = 0 }},
		{"zero radius", func(s *QuerySpec) { s.Radius = 0 }},
		{"NaN radius", func(s *QuerySpec) { s.Radius = math.NaN() }},
		{"infinite radius", func(s *QuerySpec) { s.Radius = math.Inf(1) }},
		{"negative infinite radius", func(s *QuerySpec) { s.Radius = math.Inf(-1) }},
		{"zero period", func(s *QuerySpec) { s.Period = 0 }},
		{"zero fresh", func(s *QuerySpec) { s.Fresh = 0 }},
		{"fresh exceeds period", func(s *QuerySpec) { s.Fresh = 3 * time.Second }},
		{"lifetime under period", func(s *QuerySpec) { s.Lifetime = time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mut(&s)
			if s.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestQuerySpecPeriodsAndDeadline(t *testing.T) {
	s := validSpec()
	if got := s.Periods(); got != 30 {
		t.Errorf("Periods = %d, want 30", got)
	}
	if got := s.Deadline(sec(0.5), 3); got != sec(6.5) {
		t.Errorf("Deadline(3) = %v, want 6.5s", got)
	}
}

func TestPartialAggregation(t *testing.T) {
	p := NewPartial()
	p.AddReading(1, 10)
	p.AddReading(2, 30)
	q := NewPartial()
	q.AddReading(3, 20)
	p.Merge(q)

	if p.Count != 3 {
		t.Errorf("Count = %d", p.Count)
	}
	if got := p.Value(AggCount); got != 3 {
		t.Errorf("count = %v", got)
	}
	if got := p.Value(AggSum); got != 60 {
		t.Errorf("sum = %v", got)
	}
	if got := p.Value(AggAvg); got != 20 {
		t.Errorf("avg = %v", got)
	}
	if got := p.Value(AggMin); got != 10 {
		t.Errorf("min = %v", got)
	}
	if got := p.Value(AggMax); got != 30 {
		t.Errorf("max = %v", got)
	}
	if len(p.Contribs) != 3 {
		t.Errorf("contribs = %v", p.Contribs)
	}
}

func TestPartialEmptyValues(t *testing.T) {
	p := NewPartial()
	if got := p.Value(AggCount); got != 0 {
		t.Errorf("empty count = %v", got)
	}
	for _, k := range []AggKind{AggMin, AggMax, AggAvg} {
		if got := p.Value(k); !math.IsNaN(got) {
			t.Errorf("empty %v = %v, want NaN", k, got)
		}
	}
	if got := p.Value(AggKind(77)); !math.IsNaN(got) {
		t.Errorf("unknown agg = %v, want NaN", got)
	}
}

func TestQuickPartialMergeConsistency(t *testing.T) {
	// Merging partials in any split yields the same aggregate as folding
	// all readings into one.
	f := func(vals []float64, split uint8) bool {
		if len(vals) == 0 {
			return true
		}
		cut := int(split) % len(vals)
		a, b := NewPartial(), NewPartial()
		all := NewPartial()
		for i, v := range vals {
			v = math.Mod(v, 1e6)
			if math.IsNaN(v) {
				v = 0
			}
			all.AddReading(radio.NodeID(i), v)
			if i < cut {
				a.AddReading(radio.NodeID(i), v)
			} else {
				b.AddReading(radio.NodeID(i), v)
			}
		}
		a.Merge(b)
		return a.Count == all.Count &&
			math.Abs(a.Sum-all.Sum) < 1e-9*(1+math.Abs(all.Sum)) &&
			a.Min == all.Min && a.Max == all.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeJIT.String() != "MQ-JIT" || SchemeGP.String() != "MQ-GP" || SchemeNP.String() != "NP" {
		t.Error("scheme labels wrong")
	}
	if Scheme(9).String() != "Scheme(9)" {
		t.Error("unknown scheme label wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(validSpec())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad scheme", func(c *Config) { c.Scheme = 0 }},
		{"zero pickup radius", func(c *Config) { c.PickupRadius = 0 }},
		{"negative scope margin", func(c *Config) { c.ScopeMargin = -1 }},
		{"collector margin too large", func(c *Config) { c.CollectorMargin = 2 * time.Second }},
		{"flush under collector margin", func(c *Config) { c.FlushMargin = c.CollectorMargin / 2 }},
		{"zero leaf awake", func(c *Config) { c.LeafAwake = 0 }},
		{"negative forward lead", func(c *Config) { c.ForwardLead = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig(validSpec())
			tt.mut(&c)
			if c.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestGate(t *testing.T) {
	var g gate
	if g.stale(1, 5) {
		t.Error("zero gate should pass everything")
	}
	g = g.advance(2, 10)
	if !g.stale(1, 10) || !g.stale(1, 50) {
		t.Error("older version at/after fromK should be stale")
	}
	if g.stale(1, 9) {
		t.Error("older version before fromK remains valid")
	}
	if g.stale(2, 10) || g.stale(3, 0) {
		t.Error("current/newer versions are never stale")
	}
	// Same version with smaller fromK widens the gate.
	g = g.advance(2, 7)
	if !g.stale(1, 8) {
		t.Error("advance with lower fromK should widen")
	}
	// Older announcements don't regress the gate.
	g = g.advance(1, 0)
	if g.version != 2 {
		t.Error("advance must not regress the version")
	}
}

// rig builds a tiny deterministic network: a 3x3 backbone grid spanning the
// query area plus duty-cycled leaves, a stationary or moving user, and a
// MobiQuery service.
type rig struct {
	eng    *sim.Engine
	nw     *netstack.Network
	svc    *Service
	course mobility.Course
}

// buildRig assembles the test network. leaves maps node ids to positions.
func buildRig(t *testing.T, scheme Scheme, course mobility.Course, profiler mobility.Profiler, sleep time.Duration, lifetime time.Duration, hooks Hooks) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
	nw := netstack.NewNetwork(eng, geom.Square(450), radio.DefaultParams(), mac.DefaultConfig(sleep))
	id := radio.NodeID(0)
	// Backbone grid at 80 m spacing covering the course area.
	for y := 60.0; y <= 380; y += 80 {
		for x := 60.0; x <= 380; x += 80 {
			nw.AddNode(id, geom.Pt(x, y), mac.RoleAlwaysOn)
			id++
		}
	}
	// Duty-cycled leaves offset from the grid.
	for y := 100.0; y <= 340; y += 80 {
		for x := 100.0; x <= 340; x += 80 {
			nw.AddNode(id, geom.Pt(x, y), mac.RoleDutyCycled)
			id++
		}
	}
	proxyID := id
	nw.AddProxy(proxyID, course.PosAt(0))
	spec := validSpec()
	spec.Lifetime = lifetime
	cfg := DefaultConfig(spec)
	cfg.Scheme = scheme
	svc := New(nw, cfg, field.Gradient{Slope: geom.V(0.1, 0), Base: 20}, course, profiler, proxyID, hooks)
	nw.Start()
	svc.Start()
	return &rig{eng: eng, nw: nw, svc: svc, course: course}
}

func stationaryCourse(p geom.Point) mobility.Course {
	return mobility.Course{Trajectory: mobility.Stationary(p, 0)}
}

func TestJITStationaryUserDeliversFreshResults(t *testing.T) {
	course := stationaryCourse(geom.Pt(220, 220))
	r := buildRig(t, SchemeJIT, course, mobility.OracleProfiler{Course: course}, 9*time.Second, 30*time.Second, Hooks{})
	r.eng.Run(35 * time.Second)

	results := r.svc.Results()
	if len(results) != 15 {
		t.Fatalf("got %d period results, want 15", len(results))
	}
	for _, pr := range results {
		if !pr.Received || !pr.OnTime {
			t.Errorf("k=%d: received=%v onTime=%v", pr.K, pr.Received, pr.OnTime)
			continue
		}
		if pr.Arrival > pr.Deadline {
			t.Errorf("k=%d arrived %v after deadline %v", pr.K, pr.Arrival, pr.Deadline)
		}
		if pr.Data.Count == 0 {
			t.Errorf("k=%d: empty aggregate", pr.K)
		}
		// The gradient field at x=220 averages near 42 over the area.
		avg := pr.Data.Value(AggAvg)
		if avg < 30 || avg > 55 {
			t.Errorf("k=%d: avg = %v, implausible for the gradient field", pr.K, avg)
		}
	}
	// After warmup every backbone node and leaf in the area contributes.
	last := results[len(results)-1]
	if last.Data.Count < 20 {
		t.Errorf("steady-state aggregate has only %d contributors", last.Data.Count)
	}
}

func TestFreshnessInvariant(t *testing.T) {
	// Every contributing reading is sampled no earlier than deadline-Tfresh:
	// by construction samples happen at deadline-Tfresh or later, so the
	// result's arrival minus Tfresh bounds every sample age. Verify via
	// latency: arrival <= deadline and sampling >= deadline-Tfresh means
	// age <= Tfresh at arrival.
	course := stationaryCourse(geom.Pt(220, 220))
	r := buildRig(t, SchemeJIT, course, mobility.OracleProfiler{Course: course}, 3*time.Second, 20*time.Second, Hooks{})
	r.eng.Run(25 * time.Second)
	for _, pr := range r.svc.Results() {
		if pr.Received && pr.Arrival > pr.Deadline {
			t.Errorf("k=%d: late arrival violates the deadline/freshness pair", pr.K)
		}
	}
}

func TestStorageBoundJIT(t *testing.T) {
	// The number of distinct live periods never exceeds PLjit =
	// ceil((Tsleep+2*Tfresh)/Tperiod) + 1 (+1 tolerance for teardown lag).
	course := stationaryCourse(geom.Pt(220, 220))
	live := make(map[int]int)
	maxLive := 0
	hooks := Hooks{
		OnTreeUp: func(_ radio.NodeID, k int, _ sim.Time) {
			live[k]++
			if len(live) > maxLive {
				maxLive = len(live)
			}
		},
		OnTreeDown: func(_ radio.NodeID, k int, _ sim.Time) {
			live[k]--
			if live[k] <= 0 {
				delete(live, k)
			}
		},
	}
	sleep := 9 * time.Second
	r := buildRig(t, SchemeJIT, course, mobility.OracleProfiler{Course: course}, sleep, 40*time.Second, hooks)
	r.eng.Run(45 * time.Second)

	pljit := int(math.Ceil(float64(sleep+2*time.Second)/float64(2*time.Second))) + 1
	if maxLive > pljit+1 {
		t.Errorf("max live periods = %d exceeds PLjit bound %d", maxLive, pljit+1)
	}
	if maxLive < 2 {
		t.Errorf("max live periods = %d, prefetching apparently inactive", maxLive)
	}
}

func TestGPBuildsAllTreesUpFront(t *testing.T) {
	course := stationaryCourse(geom.Pt(220, 220))
	maxK := 0
	var atTime sim.Time
	hooks := Hooks{OnTreeUp: func(_ radio.NodeID, k int, at sim.Time) {
		if k > maxK {
			maxK, atTime = k, at
		}
	}}
	r := buildRig(t, SchemeGP, course, mobility.OracleProfiler{Course: course}, 9*time.Second, 30*time.Second, hooks)
	r.eng.Run(35 * time.Second)
	if maxK < 15 {
		t.Fatalf("greedy prefetching built trees only up to k=%d", maxK)
	}
	if atTime > sec(5) {
		t.Errorf("greedy chain took %v to reach the last area; should be near-instant", atTime)
	}
}

func TestNPBaselineDegradesWithSleep(t *testing.T) {
	course := stationaryCourse(geom.Pt(220, 220))
	success := func(sleep time.Duration) float64 {
		r := buildRig(t, SchemeNP, course, mobility.OracleProfiler{Course: course}, sleep, 40*time.Second, Hooks{})
		r.eng.Run(45 * time.Second)
		ok := 0
		for _, pr := range r.svc.Results() {
			if pr.Received && pr.OnTime && pr.Data.Count >= 20 {
				ok++
			}
		}
		return float64(ok) / 20
	}
	short := success(3 * time.Second)
	long := success(15 * time.Second)
	if short < long {
		t.Errorf("NP at sleep 3s (%.2f) should beat sleep 15s (%.2f)", short, long)
	}
	if long > 0.5 {
		t.Errorf("NP at sleep 15s = %.2f, should be poor", long)
	}
}

func TestCancelOnMotionChangePreservesValidPrefix(t *testing.T) {
	// A user walking straight, with a profile change mid-run that predicts
	// the same path (version bump without divergence): results must not
	// degrade around the change.
	path := mobility.LinearPath(geom.Pt(100, 220), geom.V(4, 0), 0, sec(40))
	course := mobility.Course{Trajectory: path, Changes: []sim.Time{sec(20)}}
	profiler := mobility.ExactProfiler{Course: course, Ta: 6 * time.Second}
	r := buildRig(t, SchemeJIT, course, profiler, 3*time.Second, 36*time.Second, Hooks{})
	r.eng.Run(42 * time.Second)

	missed := 0
	for _, pr := range r.svc.Results() {
		if pr.K <= 4 {
			continue // warmup
		}
		if !pr.Received || !pr.OnTime || pr.Data.Count < 10 {
			missed++
		}
	}
	if missed > 2 {
		t.Errorf("%d degraded periods around a benign profile change", missed)
	}
}

func TestResultsOrderedAndComplete(t *testing.T) {
	course := stationaryCourse(geom.Pt(220, 220))
	r := buildRig(t, SchemeJIT, course, mobility.OracleProfiler{Course: course}, 3*time.Second, 20*time.Second, Hooks{})
	r.eng.Run(25 * time.Second)
	results := r.svc.Results()
	for i, pr := range results {
		if pr.K != i+1 {
			t.Fatalf("results out of order at %d: k=%d", i, pr.K)
		}
	}
}

func TestServiceStartTwicePanics(t *testing.T) {
	course := stationaryCourse(geom.Pt(220, 220))
	r := buildRig(t, SchemeJIT, course, mobility.OracleProfiler{Course: course}, 3*time.Second, 20*time.Second, Hooks{})
	defer func() {
		if recover() == nil {
			t.Error("second Start should panic")
		}
	}()
	r.svc.Start()
}

func TestNewPanicsWithoutProxy(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netstack.NewNetwork(eng, geom.Square(450), radio.DefaultParams(), mac.DefaultConfig(3*time.Second))
	nw.AddNode(0, geom.Pt(10, 10), mac.RoleAlwaysOn)
	course := stationaryCourse(geom.Pt(220, 220))
	defer func() {
		if recover() == nil {
			t.Error("New with missing proxy should panic")
		}
	}()
	New(nw, DefaultConfig(validSpec()), field.Uniform{}, course, mobility.OracleProfiler{Course: course}, 99, Hooks{})
}

func TestLiveTrees(t *testing.T) {
	course := stationaryCourse(geom.Pt(220, 220))
	r := buildRig(t, SchemeJIT, course, mobility.OracleProfiler{Course: course}, 9*time.Second, 30*time.Second, Hooks{})
	r.eng.Run(10 * time.Second)
	total := 0
	for _, id := range r.nw.NodeIDs() {
		total += r.svc.LiveTrees(id)
	}
	if total == 0 {
		t.Error("no live trees mid-session")
	}
	if r.svc.LiveTrees(9999) != 0 {
		t.Error("unknown node should hold no trees")
	}
}

func TestCircleOverlap(t *testing.T) {
	if got := circleOverlap(0, 150); got != 1 {
		t.Errorf("coincident overlap = %v", got)
	}
	if got := circleOverlap(300, 150); got != 0 {
		t.Errorf("disjoint overlap = %v", got)
	}
	if got := circleOverlap(400, 150); got != 0 {
		t.Errorf("far disjoint overlap = %v", got)
	}
	mid := circleOverlap(150, 150)
	if mid <= 0.3 || mid >= 0.5 {
		t.Errorf("overlap at d=r should be ~0.39, got %v", mid)
	}
	// Monotonically decreasing in distance.
	prev := 1.0
	for d := 10.0; d < 320; d += 10 {
		cur := circleOverlap(d, 150)
		if cur > prev+1e-12 {
			t.Fatalf("overlap not monotone at d=%v", d)
		}
		prev = cur
	}
}

func TestCancelPreservesPreChangePeriods(t *testing.T) {
	// A sharp 90-degree turn at 20s with profiles delivered at the change
	// (Ta=0). Trees for periods before the turn belong to the old profile's
	// still-valid prefix and must not be torn down; only state at or after
	// the new profile's first period may go.
	wps := []mobility.Waypoint{
		{T: 0, P: geom.Pt(100, 220)},
		{T: sec(20), P: geom.Pt(180, 220)},
		{T: sec(40), P: geom.Pt(180, 300)},
	}
	course := mobility.Course{
		Trajectory: mobility.NewTrajectory(wps),
		Changes:    []sim.Time{sec(20)},
	}
	profiler := mobility.ExactProfiler{Course: course, Ta: 0}

	var tearDowns []int // period indices torn down before their deadline
	hooks := Hooks{}
	r := buildRig(t, SchemeJIT, course, profiler, 3*time.Second, 36*time.Second, hooks)

	// Count teardowns that happen well before the period's own deadline
	// (natural teardown fires TeardownGrace after it).
	downBefore := make(map[int]sim.Time)
	_ = downBefore
	r.svc.hooks.h.OnTreeDown = func(_ radio.NodeID, k int, at sim.Time) {
		deadline := r.svc.cfg.Spec.Deadline(r.svc.cfg.T0, k)
		if at < deadline-time.Second {
			tearDowns = append(tearDowns, k)
		}
	}
	r.eng.Run(42 * time.Second)

	// The change at 20s is period k ~ (20-0.5)/2 = ~10. No tree for a
	// period with deadline before the change may be canceled early.
	for _, k := range tearDowns {
		deadline := r.svc.cfg.Spec.Deadline(r.svc.cfg.T0, k)
		if deadline <= sec(20) {
			t.Errorf("tree for pre-change period k=%d (deadline %v) was torn down early", k, deadline)
		}
	}
	// And results across the turn stay intact (modulo warmup right after).
	for _, pr := range r.svc.Results() {
		if pr.K >= 5 && pr.K <= 9 && (!pr.Received || !pr.OnTime) {
			t.Errorf("pre-turn period k=%d lost", pr.K)
		}
	}
}
