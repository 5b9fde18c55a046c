package prefetch

import (
	"testing"
	"time"

	"mobiquery/internal/analysis"
	"mobiquery/internal/core"
	"mobiquery/internal/geom"
	"mobiquery/internal/mobility"
	"mobiquery/internal/sim"
)

// testConfig is the shared rig: 1 s periods, 1 s freshness, 3 s duty cycle
// — an equation-10 margin (hold bound) of 5 s.
func testConfig(s Strategy) Config {
	return Config{
		Strategy: s,
		Radius:   50,
		Period:   time.Second,
		Fresh:    time.Second,
		Sleep:    3 * time.Second,
	}
}

// eastbound is a user walking +x at 1 m/s from the origin, predicted
// exactly from t=0 with no advance notice (Ta = 0).
func eastbound() mobility.Profile {
	return mobility.Profile{
		Path:      mobility.LinearPath(geom.Pt(0, 0), geom.V(1, 0), 0, 100*time.Second),
		TS:        0,
		Generated: 0,
		Version:   1,
	}
}

func TestStrategyValidate(t *testing.T) {
	good := []Strategy{{}, {Kind: JIT}, {Kind: Greedy}, {Kind: Greedy, Lookahead: 4}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", s, err)
		}
	}
	bad := []Strategy{{Kind: Kind(9)}, {Kind: Greedy, Lookahead: -1}, {Kind: JIT, Lookahead: 2}}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("%+v: expected a validation error", s)
		}
	}
	if JITStrategyString := (Strategy{Kind: JIT}).String(); JITStrategyString != "jit" {
		t.Errorf("String() = %q", JITStrategyString)
	}
	if s := (Strategy{Kind: Greedy, Lookahead: 3}).String(); s != "greedy(3)" {
		t.Errorf("String() = %q", s)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(Strategy{Kind: JIT}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Strategy = Strategy{} }, // on-demand needs no planner
		func(c *Config) { c.Radius = 0 },
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.Fresh = -1 },
		func(c *Config) { c.Sleep = -1 },
		func(c *Config) { c.UserSpeed = -1 },
	}
	for i, mutate := range bad {
		cfg := testConfig(Strategy{Kind: JIT})
		mutate(&cfg)
		if _, err := NewPlanner(cfg, eastbound()); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

// TestJITEquation10Staging pins the equation-10 forward deadlines: with a
// 5 s margin over 1 s periods, a profile arriving at t=0 cannot stage
// periods 1-5 on time, and stages every period from 6 on.
func TestJITEquation10Staging(t *testing.T) {
	p, err := NewPlanner(testConfig(Strategy{Kind: JIT}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		due := sim.Time(k) * time.Second
		e, ok := p.EntryFor(due)
		if !ok {
			t.Fatalf("period %d: no entry", k)
		}
		if e.OnTime {
			t.Errorf("period %d staged on time inside the equation-10 margin", k)
		}
		if p.PlanPeriod(due).Staged {
			t.Errorf("period %d: a late chain must not be staged", k)
		}
	}
	e, ok := p.EntryFor(6 * time.Second)
	if !ok || !e.OnTime {
		t.Fatalf("period 6 should be the first staged on time (entry %+v, ok %v)", e, ok)
	}
	if e.LaunchAt != 0 {
		t.Errorf("period 6 launch = %v, want 0 (the equation-10 instant)", e.LaunchAt)
	}
	if pp := p.PlanPeriod(6 * time.Second); !pp.Staged || pp.Ready != 6*time.Second {
		t.Errorf("PlanPeriod(6s) = %+v, want staged, ready at 6s", pp)
	}
	// JIT captures at the boundary: fresh readings, hold bound 5 s out.
	if e.CaptureAt != 6*time.Second || e.HoldUntil != 11*time.Second {
		t.Errorf("capture/hold = %v/%v, want 6s/11s", e.CaptureAt, e.HoldUntil)
	}
	// Period 7 launches exactly one period later.
	e7, _ := p.EntryFor(7 * time.Second)
	if e7.LaunchAt != time.Second {
		t.Errorf("period 7 launch = %v, want 1s", e7.LaunchAt)
	}
}

// TestWarmupMatchesEquation16 pins the warmup flag to the closed form: the
// analysis bound and the plan's first on-time period must agree.
func TestWarmupMatchesEquation16(t *testing.T) {
	p, err := NewPlanner(testConfig(Strategy{Kind: JIT}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	q := analysis.QueryParams{Period: time.Second, Fresh: time.Second, Sleep: 3 * time.Second}
	tw := analysis.WarmupInterval(q, 0, 1, DefaultPrefetchSpeed)
	if tw <= 0 {
		t.Fatal("zero-advance profile should have a warmup interval")
	}
	for k := 1; k <= 10; k++ {
		due := sim.Time(k) * time.Second
		want := due < tw
		if got := p.PlanPeriod(due).Warmup; got != want {
			t.Errorf("Warmup(period %d) = %v, want %v (Tw = %v)", k, got, want, tw)
		}
	}
}

// TestNoGapBetweenWarmupAndStaging pins the contract the session API
// documents: every covered period is either staged on time or flagged
// Warmup — including when the equation-10 margin is not an integer
// multiple of the period, where the rounded equation-16 bound alone would
// leave the last unstaged period unflagged.
func TestNoGapBetweenWarmupAndStaging(t *testing.T) {
	for _, sleep := range []time.Duration{3 * time.Second, 3300 * time.Millisecond, 4700 * time.Millisecond} {
		cfg := testConfig(Strategy{Kind: JIT})
		cfg.Sleep = sleep
		p, err := NewPlanner(cfg, eastbound())
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 20; k++ {
			due := sim.Time(k) * time.Second
			pp := p.PlanPeriod(due)
			if !pp.Staged && !pp.Warmup {
				t.Errorf("sleep %v: period %d is neither staged nor warmup", sleep, k)
			}
			if pp.Staged && pp.Warmup {
				t.Errorf("sleep %v: period %d is both staged and warmup", sleep, k)
			}
		}
	}
}

// TestGreedyCaptureAndDefaultLookahead pins Greedy's early capture (the
// freshness-window opening) and its derived minimal lookahead.
func TestGreedyCaptureAndDefaultLookahead(t *testing.T) {
	p, err := NewPlanner(testConfig(Strategy{Kind: Greedy}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	q := analysis.QueryParams{Period: time.Second, Fresh: time.Second, Sleep: 3 * time.Second}
	wantLook := analysis.StorageJIT(q) // ceil((S+2F)/P)+1 = 6
	if got := p.Stats().Strategy.Lookahead; got != wantLook {
		t.Fatalf("default lookahead = %d, want %d", got, wantLook)
	}
	e, ok := p.EntryFor(8 * time.Second)
	if !ok || !e.OnTime {
		t.Fatalf("period 8 should be staged (entry %+v)", e)
	}
	// Captured when the freshness window opens, one second before due, and
	// held: the ledger closes the window 5 s after capture.
	if e.CaptureAt != 7*time.Second || e.HoldUntil != 12*time.Second {
		t.Errorf("capture/hold = %v/%v, want 7s/12s", e.CaptureAt, e.HoldUntil)
	}
	if e.LaunchAt != 2*time.Second {
		t.Errorf("launch = %v, want due - lookahead = 2s", e.LaunchAt)
	}
}

// TestOutstandingMatchesStorageBounds pins the live storage ledger to the
// paper's equations 11/12: JIT holds the constant bound, Greedy its
// lookahead.
func TestOutstandingMatchesStorageBounds(t *testing.T) {
	q := analysis.QueryParams{Period: time.Second, Fresh: time.Second, Sleep: 3 * time.Second}
	jit, err := NewPlanner(testConfig(Strategy{Kind: JIT}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	at := 20 * time.Second // well past warmup
	if got, want := jit.Outstanding(at), analysis.StorageJIT(q); got != want {
		t.Errorf("JIT outstanding = %d, want the equation-12 constant %d", got, want)
	}
	gp, err := NewPlanner(testConfig(Strategy{Kind: Greedy, Lookahead: 20}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	if got := gp.Outstanding(at); got != 20 {
		t.Errorf("Greedy(20) outstanding = %d, want 20", got)
	}
}

// TestReplanRestartsWarmup pins the re-plan semantics: a new profile moves
// the epoch, so near boundaries lose their staging and warm up again.
func TestReplanRestartsWarmup(t *testing.T) {
	p, err := NewPlanner(testConfig(Strategy{Kind: JIT}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	if !p.PlanPeriod(10 * time.Second).Staged {
		t.Fatal("period 10 should be staged before the replan")
	}
	// The user turned at t=8s: straight-line profile from (8, 0) north.
	turned := mobility.Profile{
		Path:      mobility.LinearPath(geom.Pt(8, 0), geom.V(0, 1), 8*time.Second, 9*time.Second),
		TS:        8 * time.Second,
		Generated: 8 * time.Second,
		Version:   2,
	}
	p.Replan(turned, 8*time.Second)
	if st := p.Stats(); st.Replans != 1 || st.Epoch != 8*time.Second {
		t.Fatalf("stats after replan = %+v", st)
	}
	if p.PlanPeriod(10 * time.Second).Staged {
		t.Error("period 10 still staged after the replan re-dispatched its chain")
	}
	if !p.PlanPeriod(10 * time.Second).Warmup {
		t.Error("period 10 should be inside the restarted warmup interval")
	}
	// Far enough out the new plan is staged again, centered on the new path.
	e, ok := p.EntryFor(16 * time.Second)
	if !ok || !e.OnTime {
		t.Fatalf("period 16 should re-stage under the new profile (entry %+v)", e)
	}
	if want := geom.Pt(8, 8); e.Center.Dist(want) > 1e-9 {
		t.Errorf("re-planned center = %v, want %v", e.Center, want)
	}
}

// TestProfileValidityBoundsPlan pins the coverage rule: boundaries past a
// finite profile validity have no plan entries.
func TestProfileValidityBoundsPlan(t *testing.T) {
	prof := eastbound()
	prof.Validity = 3 * time.Second
	p, err := NewPlanner(testConfig(Strategy{Kind: JIT}), prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.EntryFor(3 * time.Second); !ok {
		t.Error("boundary at the validity edge should be covered")
	}
	if _, ok := p.EntryFor(4 * time.Second); ok {
		t.Error("boundary past the profile validity should not be planned")
	}
	if _, ok := p.EntryFor(1500 * time.Millisecond); ok {
		t.Error("a non-boundary instant should never have an entry")
	}
}

// TestSamplerServesPlannedAreaOnly pins the membership rule the engine
// applies to PlanPeriod: prefetched readings go only to nodes inside the
// predicted pickup circle of a staged period; everything else falls
// through to the base schedule.
func TestSamplerServesPlannedAreaOnly(t *testing.T) {
	p, err := NewPlanner(testConfig(Strategy{Kind: JIT}), eastbound())
	if err != nil {
		t.Fatal(err)
	}
	due := 8 * time.Second // staged; predicted center (8, 0), radius 50
	pp := p.PlanPeriod(due)
	if !pp.Staged || pp.Warmup || pp.Capture != due || pp.Ready != due {
		t.Fatalf("staged period = %+v, want a boundary capture ready at the boundary", pp)
	}
	if !geom.Pt(10, 5).Within(pp.Pickup, pp.Radius) {
		t.Errorf("in-area node outside the pickup circle %v/%v", pp.Pickup, pp.Radius)
	}
	if geom.Pt(200, 0).Within(pp.Pickup, pp.Radius) {
		t.Errorf("out-of-area node inside the pickup circle %v/%v", pp.Pickup, pp.Radius)
	}
	// A warmup period's chain is late: nothing is served from the plan.
	if pp := p.PlanPeriod(2 * time.Second); pp.Staged || !pp.Warmup {
		t.Errorf("warmup period = %+v, want unstaged warmup", pp)
	}
	// An uncovered boundary is neither staged nor warmup.
	if pp := p.PlanPeriod(8*time.Second + time.Millisecond); pp != (core.PlannedPeriod{}) {
		t.Errorf("off-boundary instant = %+v, want the zero period", pp)
	}
	// The plan itself keeps no ledger; the driver folds evaluation counts
	// in once per period.
	if st := p.Stats(); st.Served != 0 {
		t.Errorf("plan lookups touched the served ledger: %d", st.Served)
	}
	p.NoteServed(1)
	p.NoteServed(0)
	p.NoteServed(-3) // defensive: never decrements
	if st := p.Stats(); st.Served != 1 {
		t.Errorf("served ledger = %d, want 1", st.Served)
	}
}

// TestStationaryUserWarmsUp guards the speed-ratio clamps: a stationary
// profile (zero velocity) must not panic in the equation-16 evaluation.
func TestStationaryUserWarmsUp(t *testing.T) {
	prof := mobility.Profile{Path: mobility.Stationary(geom.Pt(5, 5), 0)}
	p, err := NewPlanner(testConfig(Strategy{Kind: JIT}), prof)
	if err != nil {
		t.Fatal(err)
	}
	if !p.PlanPeriod(time.Second).Warmup {
		t.Error("first period should still warm up: the chain cannot precede the profile")
	}
	if p.PlanPeriod(time.Hour).Warmup {
		t.Error("a stationary user should eventually leave warmup")
	}
}
