package core

import (
	"math"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/obs"
	"mobiquery/internal/sim"
)

// EvaluateDue drives one query the way a clock driver does, for tests that
// step queries individually: EvaluateDueBatch into a private batch, then
// FlushRearms, so the schedule is re-armed before it returns.
func (e *QueryEngine) EvaluateDue(queryID uint32, now sim.Time) (WindowResult, bool) {
	rb := e.NewRearmBatch()
	res, ok := e.EvaluateDueBatch(queryID, now, rb)
	e.FlushRearms(rb)
	return res, ok
}

func TestTemporalSpecValidate(t *testing.T) {
	good := TemporalSpec{Period: time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []TemporalSpec{
		{Period: 0},
		{Period: -time.Second},
		{Period: time.Second, Deadline: -1},
		{Period: time.Second, Fresh: -1},
	}
	for i, ts := range bad {
		if ts.Validate() == nil {
			t.Errorf("spec %d (%+v): expected validation error", i, ts)
		}
	}
}

func TestNewQueryEngineEAndRegisterE(t *testing.T) {
	if _, err := NewQueryEngineE(geom.Square(100), 10, nil, EngineConfig{}); err == nil {
		t.Error("nil field should be an error")
	}
	if _, err := NewQueryEngineE(geom.Square(100), 10, field.Uniform{Value: 1}, EngineConfig{Shards: -1}); err == nil {
		t.Error("negative shards should be an error")
	}
	e := testEngine(EngineConfig{})
	if err := e.RegisterE(0, 10, geom.Pt(0, 0)); err == nil {
		t.Error("zero id should be an error")
	}
	if err := e.RegisterE(1, 0, geom.Pt(0, 0)); err == nil {
		t.Error("zero radius should be an error")
	}
	if err := e.RegisterE(1, 10, geom.Pt(0, 0)); err != nil {
		t.Fatalf("RegisterE: %v", err)
	}
	if err := e.RegisterE(1, 10, geom.Pt(0, 0)); err == nil {
		t.Error("duplicate id should be an error")
	}
	// A deregistered id is free for re-registration.
	e.Deregister(1)
	if err := e.RegisterE(1, 20, geom.Pt(5, 5)); err != nil {
		t.Fatalf("re-register after deregister: %v", err)
	}
}

// temporalEngine builds a three-node engine with a fixed sampling history:
// node 0 sampled at 1.5 s, node 1 at 200 ms, node 2 never.
func temporalEngine(t *testing.T) *QueryEngine {
	t.Helper()
	samples := map[int32]sim.Time{0: 1500 * time.Millisecond, 1: 200 * time.Millisecond}
	e := NewQueryEngine(geom.Square(1000), 100, field.Gradient{Base: 10, Slope: geom.V(1, 0)}, EngineConfig{
		Sampler: func(id int32, at sim.Time) (sim.Time, bool) {
			s, ok := samples[id]
			if !ok || s > at {
				return 0, false
			}
			return s, true
		},
	})
	e.UpsertNode(0, geom.Pt(10, 0))
	e.UpsertNode(1, geom.Pt(20, 0))
	e.UpsertNode(2, geom.Pt(30, 0))
	return e
}

func TestEvaluateDueFreshnessWindow(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Fresh: time.Second}
	if err := e.RegisterTemporalE(7, 100, geom.Pt(0, 0), spec, 0, Route{}); err != nil {
		t.Fatalf("RegisterTemporalE: %v", err)
	}

	// Not yet due before the first period boundary.
	if _, ok := e.EvaluateDue(7, 1999*time.Millisecond); ok {
		t.Fatal("EvaluateDue before the boundary should not fire")
	}
	k, due, ok := e.NextDue(7)
	if !ok || k != 1 || due != 2*time.Second {
		t.Fatalf("NextDue = (%d, %v, %v), want (1, 2s, true)", k, due, ok)
	}

	// At the boundary: node 0 (age 500 ms) is fresh; node 1 (age 1.8 s)
	// and node 2 (never sampled) are stale.
	res, ok := e.EvaluateDue(7, 2*time.Second)
	if !ok {
		t.Fatal("EvaluateDue at the boundary should fire")
	}
	if res.K != 1 || res.Due != 2*time.Second || res.EvaluatedAt != 2*time.Second {
		t.Errorf("period header = %d/%v/%v", res.K, res.Due, res.EvaluatedAt)
	}
	if res.Late || res.Lateness != 0 {
		t.Errorf("on-time evaluation marked late (%v)", res.Lateness)
	}
	if res.AreaNodes != 3 || res.StaleNodes != 2 || len(res.Nodes) != 1 || res.Nodes[0] != 0 {
		t.Errorf("area %d stale %d nodes %v, want 3/2/[0]", res.AreaNodes, res.StaleNodes, res.Nodes)
	}
	if res.MaxStaleness != 500*time.Millisecond {
		t.Errorf("MaxStaleness = %v, want 500ms", res.MaxStaleness)
	}
	// Node 0 sits at x=10 under the gradient: reading 10 + 10*1 = 20.
	if v := res.Data.Value(AggAvg); v != 20 {
		t.Errorf("aggregate = %v, want 20", v)
	}

	st, ok := e.Stats(7)
	if !ok {
		t.Fatal("Stats of temporal query missing")
	}
	if st.NextK != 2 || st.Evaluated != 1 || st.Late != 0 {
		t.Errorf("stats = %+v", st)
	}
	if !st.HasReading || st.LastReading != 1500*time.Millisecond {
		t.Errorf("last reading = %v/%v, want 1.5s/true", st.LastReading, st.HasReading)
	}
}

func TestEvaluateDueZeroFreshAcceptsAnyReading(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second} // Fresh 0: unbounded window
	if err := e.RegisterTemporalE(9, 100, geom.Pt(0, 0), spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}
	res, ok := e.EvaluateDue(9, 2*time.Second)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	// Both sampled nodes contribute however old; the never-sampled node
	// still cannot.
	if len(res.Nodes) != 2 || res.StaleNodes != 1 {
		t.Fatalf("nodes %v stale %d, want [0 1] / 1", res.Nodes, res.StaleNodes)
	}
	if res.MaxStaleness != 1800*time.Millisecond {
		t.Errorf("MaxStaleness = %v, want 1.8s", res.MaxStaleness)
	}
}

func TestEvaluateDueDeadlineAccounting(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Deadline: 100 * time.Millisecond, Fresh: time.Second}
	if err := e.RegisterTemporalE(3, 100, geom.Pt(0, 0), spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}
	// Jump straight to 6.05 s: periods 1 (due 2 s) and 2 (due 4 s) are
	// past the slack and late; period 3 (due 6 s) is within it.
	now := 6050 * time.Millisecond
	var got []WindowResult
	for {
		res, ok := e.EvaluateDue(3, now)
		if !ok {
			break
		}
		got = append(got, res)
	}
	if len(got) != 3 {
		t.Fatalf("evaluated %d periods, want 3", len(got))
	}
	wantLate := []struct {
		late     bool
		lateness time.Duration
	}{
		{true, 4050 * time.Millisecond},
		{true, 2050 * time.Millisecond},
		{false, 0},
	}
	for i, res := range got {
		if res.K != i+1 || res.Due != time.Duration(i+1)*2*time.Second {
			t.Errorf("period %d header = %d/%v", i, res.K, res.Due)
		}
		if res.Late != wantLate[i].late || res.Lateness != wantLate[i].lateness {
			t.Errorf("period %d late = %v/%v, want %v/%v",
				i, res.Late, res.Lateness, wantLate[i].late, wantLate[i].lateness)
		}
	}
	st, _ := e.Stats(3)
	if st.Evaluated != 3 || st.Late != 2 || st.NextK != 4 {
		t.Errorf("stats = %+v, want 3 evaluated / 2 late / next 4", st)
	}
}

func TestEvaluateDueNonTemporalAndUnknown(t *testing.T) {
	e := temporalEngine(t)
	e.Register(5, 100, geom.Pt(0, 0)) // plain instantaneous query
	if _, ok := e.EvaluateDue(5, time.Hour); ok {
		t.Error("EvaluateDue fired for a non-temporal query")
	}
	if _, _, ok := e.NextDue(5); ok {
		t.Error("NextDue answered for a non-temporal query")
	}
	if _, ok := e.Stats(5); ok {
		t.Error("Stats answered for a non-temporal query")
	}
	if _, ok := e.EvaluateDue(999, time.Hour); ok {
		t.Error("EvaluateDue fired for an unknown query")
	}
	if err := e.RegisterTemporalE(6, 100, geom.Pt(0, 0), TemporalSpec{}, 0, Route{}); err == nil {
		t.Error("zero period should be rejected")
	}
}

// fakePlan is a scripted PrefetchPlan: boundaries in staged are ready at
// the boundary itself, serving readings captured there to nodes inside the
// pickup circle (pickup, radius); boundaries before warmupUntil are warmup.
type fakePlan struct {
	staged      map[sim.Time]bool
	warmupUntil sim.Time
	pickup      geom.Point
	radius      float64
}

func (f fakePlan) PlanPeriod(due sim.Time) PlannedPeriod {
	return PlannedPeriod{
		Staged:  f.staged[due],
		Warmup:  due < f.warmupUntil,
		Pickup:  f.pickup,
		Radius:  f.radius,
		Capture: due,
		Ready:   due,
	}
}

// TestPerQuerySamplerOverridesGlobal pins the planned route's sampling: on
// a staged boundary, nodes inside the plan's pickup circle are served the
// plan's reading and counted in Prefetched, while nodes outside it — and
// other queries — keep the engine's sampling schedule.
func TestPerQuerySamplerOverridesGlobal(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Fresh: time.Second}
	// Query 1's plan: nodes within 25 m of the origin get a fresh prefetched
	// reading captured at the boundary.
	plan := fakePlan{staged: map[sim.Time]bool{2 * time.Second: true}, radius: 25}
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0, Route{Plan: plan}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTemporalE(2, 100, geom.Pt(0, 0), spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}

	res, ok := e.EvaluateDue(1, 2*time.Second)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	// Nodes 0 (x=10) and 1 (x=20) prefetched fresh; node 2 (x=30) falls
	// through to the schedule, which never sampled it.
	if res.Prefetched != 2 || len(res.Nodes) != 2 || res.StaleNodes != 1 {
		t.Errorf("prefetched/nodes/stale = %d/%d/%d, want 2/2/1", res.Prefetched, len(res.Nodes), res.StaleNodes)
	}
	if res.MaxStaleness != 0 {
		t.Errorf("boundary-captured readings should have zero staleness, got %v", res.MaxStaleness)
	}

	// Query 2 still sees the global schedule: only node 0 is fresh.
	res2, _ := e.EvaluateDue(2, 2*time.Second)
	if res2.Prefetched != 0 || len(res2.Nodes) != 1 || res2.StaleNodes != 2 {
		t.Errorf("global-sampler query: prefetched/nodes/stale = %d/%d/%d, want 0/1/2", res2.Prefetched, len(res2.Nodes), res2.StaleNodes)
	}
}

// fakeWarmer is a scripted CorridorWarmer: it serves the fixed node list
// (filtered to the evaluated circle) for boundaries in staged, and refuses
// everything else.
type fakeWarmer struct {
	staged map[sim.Time]bool
	nodes  []struct {
		id  int32
		pos geom.Point
	}
	serves, refusals int
}

func (f *fakeWarmer) VisitStaged(due sim.Time, center geom.Point, radius float64, fn func(id int32, pos geom.Point)) bool {
	if !f.staged[due] {
		f.refusals++
		return false
	}
	for _, n := range f.nodes {
		if n.pos.Dist2(center) <= radius*radius {
			fn(n.id, n.pos)
		}
	}
	f.serves++
	return true
}

// TestCorridorWarmerServesStagedBoundaries pins the warmer route: a staged
// boundary is enumerated from the warmer's buffer (ClassCorridor) with
// results identical to the cold scan, an unstaged boundary falls back to
// the planned scan, and a query without a warmer is never ClassCorridor.
func TestCorridorWarmerServesStagedBoundaries(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Fresh: 10 * time.Second}
	// The warmer's snapshot is exactly the grid's nodes — the contract a
	// real corridor cache proves with coverage and version checks.
	w := &fakeWarmer{staged: map[sim.Time]bool{2 * time.Second: true}}
	for _, n := range []struct {
		id int32
		x  float64
	}{{0, 10}, {1, 20}, {2, 30}} {
		w.nodes = append(w.nodes, struct {
			id  int32
			pos geom.Point
		}{n.id, geom.Pt(n.x, 0)})
	}
	// The plan stages nothing, so both queries read the engine's schedule.
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0, Route{Plan: fakePlan{}, Warmer: w}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTemporalE(2, 100, geom.Pt(0, 0), spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}

	warm, ok := e.EvaluateDue(1, 2*time.Second)
	if !ok || warm.Class != obs.ClassCorridor {
		t.Fatalf("staged boundary not served warm (ok %v, class %v)", ok, warm.Class)
	}
	cold, ok := e.EvaluateDue(2, 2*time.Second)
	if !ok || cold.Class != obs.ClassCold {
		t.Fatalf("warmer-less query served as %v (ok %v)", cold.Class, ok)
	}
	if warm.AreaNodes != cold.AreaNodes || warm.StaleNodes != cold.StaleNodes ||
		len(warm.Nodes) != len(cold.Nodes) || warm.Data.Sum != cold.Data.Sum {
		t.Errorf("warm result diverged from cold: %+v vs %+v", warm, cold)
	}
	if w.serves != 1 {
		t.Errorf("warmer served %d boundaries, want 1", w.serves)
	}

	// Boundary 2 (due 4s) is not staged: planned-scan fallback.
	fallback, ok := e.EvaluateDue(1, 4*time.Second)
	if !ok || fallback.Class != obs.ClassPlanned {
		t.Fatalf("unstaged boundary served as %v (ok %v)", fallback.Class, ok)
	}
	if w.refusals != 1 {
		t.Errorf("warmer refused %d boundaries, want 1", w.refusals)
	}
}

// TestWindowResultNodesReused pins the contributor-buffer contract: Nodes
// aliases a per-query scratch reused by the next EvaluateDue of the same
// query, so dense streaming allocates no fresh id slice per period.
func TestWindowResultNodesReused(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: time.Second, Fresh: 10 * time.Second}
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}
	first, ok := e.EvaluateDue(1, 2*time.Second)
	if !ok || len(first.Nodes) == 0 {
		t.Fatalf("first period: ok %v, %d nodes", ok, len(first.Nodes))
	}
	second, ok := e.EvaluateDue(1, 2*time.Second)
	if !ok || len(second.Nodes) == 0 {
		t.Fatalf("second period: ok %v, %d nodes", ok, len(second.Nodes))
	}
	if &first.Nodes[0] != &second.Nodes[0] {
		t.Error("consecutive periods did not reuse the contributor buffer")
	}
}

// TestEvaluateDueCreditsStagedPeriods pins the plan hook in the deadline
// ledger: a period the plan staged by its boundary is accounted as
// evaluated at the boundary even when the clock tick collecting it runs
// late, while unstaged (warmup) periods keep tick accounting.
func TestEvaluateDueCreditsStagedPeriods(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Deadline: 100 * time.Millisecond}
	// The plan's pickup circle covers the whole area: every reading of a
	// staged period is prefetched, captured at the boundary (boundary
	// credit requires actual coverage).
	plan := fakePlan{
		staged:      map[sim.Time]bool{4 * time.Second: true, 6 * time.Second: true},
		warmupUntil: 4 * time.Second,
		radius:      100,
	}
	if err := e.RegisterTemporalE(4, 100, geom.Pt(0, 0), spec, 0, Route{Plan: plan}); err != nil {
		t.Fatal(err)
	}
	now := 6500 * time.Millisecond // all three periods collected in one step
	var got []WindowResult
	for {
		res, ok := e.EvaluateDue(4, now)
		if !ok {
			break
		}
		got = append(got, res)
	}
	if len(got) != 3 {
		t.Fatalf("evaluated %d periods, want 3", len(got))
	}
	// Period 1 (due 2s): unstaged warmup, evaluated at the tick, late.
	if !got[0].Late || got[0].EvaluatedAt != now || !got[0].Warmup {
		t.Errorf("warmup period = late %v / at %v / warmup %v, want late tick accounting", got[0].Late, got[0].EvaluatedAt, got[0].Warmup)
	}
	if got[0].Lateness != now-2*time.Second {
		t.Errorf("warmup lateness = %v, want %v", got[0].Lateness, now-2*time.Second)
	}
	// Periods 2 and 3 (due 4s, 6s): staged at their boundaries, on time.
	for i, res := range got[1:] {
		if res.Late || res.Lateness != 0 || res.Warmup {
			t.Errorf("staged period %d marked late (%v) or warmup (%v)", i+2, res.Lateness, res.Warmup)
		}
		if res.EvaluatedAt != res.Due {
			t.Errorf("staged period %d evaluated at %v, want its boundary %v", i+2, res.EvaluatedAt, res.Due)
		}
	}
	st, _ := e.Stats(4)
	if st.Late != 1 {
		t.Errorf("ledger late = %d, want 1", st.Late)
	}
}

// TestStagedCreditRequiresCoverage pins the prediction-miss rule: a plan
// that claims a period staged but whose chains served no reading to the
// actual (non-empty) query area gets no boundary credit — the answer was
// really assembled on demand at the tick, and the ledger says so.
func TestStagedCreditRequiresCoverage(t *testing.T) {
	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second, Deadline: 100 * time.Millisecond}
	// Staged per the plan, but its pickup circle misses every in-area
	// node — the chains went to a mispredicted area.
	staged := map[sim.Time]bool{2 * time.Second: true}
	miss := fakePlan{staged: staged, pickup: geom.Pt(900, 900), radius: 1}
	if err := e.RegisterTemporalE(8, 100, geom.Pt(0, 0), spec, 0, Route{Plan: miss}); err != nil {
		t.Fatal(err)
	}
	now := 2500 * time.Millisecond
	res, ok := e.EvaluateDue(8, now)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	if res.Prefetched != 0 || res.AreaNodes == 0 {
		t.Fatalf("setup broken: prefetched %d over %d area nodes", res.Prefetched, res.AreaNodes)
	}
	if res.EvaluatedAt != now || !res.Late || res.Lateness != now-2*time.Second {
		t.Errorf("uncovered staged period credited: at %v late %v (%v), want tick accounting", res.EvaluatedAt, res.Late, res.Lateness)
	}
	// Over an empty area the staged empty answer is the answer: credit.
	if err := e.RegisterTemporalE(9, 50, geom.Pt(900, 900), spec, 0, Route{Plan: fakePlan{staged: staged}}); err != nil {
		t.Fatal(err)
	}
	res, ok = e.EvaluateDue(9, now)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	if res.AreaNodes != 0 || res.Late || res.EvaluatedAt != 2*time.Second {
		t.Errorf("empty-area staged period = %d nodes / late %v / at %v, want boundary credit", res.AreaNodes, res.Late, res.EvaluatedAt)
	}
}

func TestEvaluateDueDefaultSamplerIsInstantaneous(t *testing.T) {
	// Without a sampler the windowed path degenerates to the oracle:
	// readings taken at the boundary itself, nothing stale.
	e := NewQueryEngine(geom.Square(1000), 100, field.Uniform{Value: 42}, EngineConfig{})
	e.UpsertNode(0, geom.Pt(10, 0))
	e.UpsertNode(1, geom.Pt(20, 0))
	if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), TemporalSpec{Period: time.Second, Fresh: time.Millisecond}, 0, Route{}); err != nil {
		t.Fatal(err)
	}
	res, ok := e.EvaluateDue(1, time.Second)
	if !ok {
		t.Fatal("EvaluateDue should fire")
	}
	if len(res.Nodes) != 2 || res.StaleNodes != 0 || res.MaxStaleness != 0 {
		t.Errorf("instantaneous window = %d nodes / %d stale / %v staleness",
			len(res.Nodes), res.StaleNodes, res.MaxStaleness)
	}
	if v := res.Data.Value(AggAvg); v != 42 {
		t.Errorf("aggregate = %v, want 42", v)
	}
	if math.IsNaN(res.Data.Value(AggMin)) {
		t.Error("min of populated window is NaN")
	}
}

// fakeIndex is a scripted AggIndex: it answers the boundaries in staged
// with an empty whole-disk aggregate and declines everything else.
type fakeIndex struct{ staged map[sim.Time]bool }

func (f fakeIndex) ServeWindow(due sim.Time, _ geom.Point, _ float64, _ time.Duration) (AggServe, bool) {
	if !f.staged[due] {
		return AggServe{}, false
	}
	return AggServe{Data: NewPartial(), AreaNodes: 3, StaleNodes: 3}, true
}

// TestRouteShapes registers each of the four legal route shapes and pins
// the serve class of a period its route serves (due 2s) and of one a
// declining warmer or index hands back to the scan (due 4s), then checks
// that the illegal shapes are rejected at registration.
func TestRouteShapes(t *testing.T) {
	staged := map[sim.Time]bool{2 * time.Second: true}
	warmer := func() *fakeWarmer {
		w := &fakeWarmer{staged: staged}
		for i, x := range []float64{10, 20, 30} {
			w.nodes = append(w.nodes, struct {
				id  int32
				pos geom.Point
			}{int32(i), geom.Pt(x, 0)})
		}
		return w
	}
	tests := []struct {
		name           string
		route          Route
		served, second obs.Class
	}{
		{"cold", Route{}, obs.ClassCold, obs.ClassCold},
		{"planned", Route{Plan: fakePlan{}}, obs.ClassPlanned, obs.ClassPlanned},
		{"planned+corridor", Route{Plan: fakePlan{}, Warmer: warmer()}, obs.ClassCorridor, obs.ClassPlanned},
		{"pyramid", Route{Index: fakeIndex{staged: staged}}, obs.ClassPyramid, obs.ClassCold},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := temporalEngine(t)
			spec := TemporalSpec{Period: 2 * time.Second, Fresh: time.Second}
			if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0, tt.route); err != nil {
				t.Fatalf("legal route rejected: %v", err)
			}
			for i, want := range []obs.Class{tt.served, tt.second} {
				res, ok := e.EvaluateDue(1, time.Duration(i+1)*2*time.Second)
				if !ok || res.Class != want {
					t.Errorf("period %d: class %v (ok %v), want %v", i+1, res.Class, ok, want)
				}
			}
		})
	}

	e := temporalEngine(t)
	spec := TemporalSpec{Period: 2 * time.Second}
	for name, r := range map[string]Route{
		"pyramid+plan":        {Plan: fakePlan{}, Index: fakeIndex{}},
		"warmer without plan": {Warmer: warmer()},
		"pyramid+warmer":      {Warmer: warmer(), Index: fakeIndex{}},
		"pyramid+plan+warmer": {Plan: fakePlan{}, Warmer: warmer(), Index: fakeIndex{}},
	} {
		if err := e.RegisterTemporalE(1, 100, geom.Pt(0, 0), spec, 0, r); err == nil {
			t.Errorf("%s route accepted", name)
		}
	}
	if e.QueryCount() != 0 {
		t.Errorf("rejected routes left %d queries registered", e.QueryCount())
	}
}
