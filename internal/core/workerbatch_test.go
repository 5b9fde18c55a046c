package core

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// TestHitSetOrdersByID pins the integer-key sort against the comparison
// sort it replaces: for random int32 ids, negatives and both extremes
// included, folding hits[uint32(key)] in sorted key order visits every hit
// once, in exactly the order slices.SortFunc with cmp.Compare gives.
func TestHitSetOrdersByID(t *testing.T) {
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -2, -1, 0, 1, 2, math.MaxInt32 - 1, math.MaxInt32}
	cases := [][]int32{
		nil,
		{0},
		{math.MaxInt32, math.MinInt32},
		{1, -1, 0},
		edges,
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		ids := make([]int32, rng.Intn(300))
		for i := range ids {
			ids[i] = int32(rng.Uint32())
		}
		if rng.Intn(2) == 0 {
			ids = append(ids, edges...)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		cases = append(cases, ids)
	}
	var hs hitSet
	for c, ids := range cases {
		hs.reset()
		for _, id := range ids {
			hs.add(areaHit{id: id})
		}
		hs.sort()
		want := slices.Clone(ids)
		slices.SortFunc(want, func(a, b int32) int { return cmp.Compare(a, b) })
		seen := make([]bool, len(ids))
		for i, k := range hs.keys {
			idx := uint32(k)
			if seen[idx] {
				t.Fatalf("case %d: hit %d folded twice", c, idx)
			}
			seen[idx] = true
			if got := hs.hits[idx].id; got != want[i] {
				t.Fatalf("case %d: position %d folds id %d, want %d", c, i, got, want[i])
			}
		}
		if len(hs.keys) != len(ids) {
			t.Fatalf("case %d: %d keys for %d hits", c, len(hs.keys), len(ids))
		}
	}
}

// evalBatchRadius gives a disk of about 70 nodes on denseEvalEngine's
// field (5,000 nodes over 2,000 m x 2,000 m is 1.25e-3 nodes/m²); the one
// centered on the field holds 80.
const evalBatchRadius = 130

// denseEvalEngine builds the field the allocation pin and
// BenchmarkEvaluateDueBatch share: 5,000 nodes uniform over a 2,000 m
// square, each sampling every second at a per-node phase.
func denseEvalEngine(tb testing.TB) *QueryEngine {
	tb.Helper()
	region := geom.Square(2000)
	e := NewQueryEngine(region, 150, field.Gradient{Base: 10, Slope: geom.V(0.01, 0.02)}, EngineConfig{
		Sampler: ScheduleSampler(time.Second, func(id int32) sim.Time { return sim.Time(id%1000) * time.Millisecond }),
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}
	return e
}

// TestEvaluateDueBatchAllocFree pins the dense-period allocation budget at
// zero through one reused batch: a warm cold-route period (evaluation plus
// flush), and the first period of a freshly registered query, whose
// evaluation fills the batch's scratch rather than growing its own.
func TestEvaluateDueBatchAllocFree(t *testing.T) {
	e := denseEvalEngine(t)
	spec := TemporalSpec{Period: time.Second, Fresh: 2 * time.Second}
	center := geom.Pt(1000, 1000)
	b := e.NewWorkerBatch()

	if err := e.RegisterTemporalE(1, evalBatchRadius, center, spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	warm := func() {
		now += time.Second
		if wr, ok := e.EvaluateDueBatch(1, center, now, b); !ok || wr.AreaNodes == 0 {
			t.Fatalf("warm period at %v: ok %v, %d area nodes", now, ok, wr.AreaNodes)
		}
		e.FlushRearms(b)
	}
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Errorf("warm cold-route period: %v allocs, want 0", n)
	}

	// A wider disk sizes the batch for any ~80-node area first, as a
	// service's batch is sized by the areas it has already served.
	if err := e.RegisterTemporalE(2, 3*evalBatchRadius, center, spec, 0, Route{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.EvaluateDueBatch(2, center, time.Second, b); !ok {
		t.Fatal("sizing period not due")
	}
	e.FlushRearms(b)
	// AllocsPerRun makes one warm-up call before its 100 measured runs;
	// every call evaluates a different, never-evaluated query.
	const fresh = 101
	rng := rand.New(rand.NewSource(2))
	centers := make([]geom.Point, fresh)
	inner := geom.Rect{MinX: 200, MinY: 200, MaxX: 1800, MaxY: 1800}
	for i := range centers {
		centers[i] = inner.UniformPoint(rng)
		if err := e.RegisterTemporalE(uint32(3+i), evalBatchRadius, centers[i], spec, 0, Route{}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	first := func() {
		wr, ok := e.EvaluateDueBatch(uint32(3+i), centers[i], time.Second, b)
		if !ok || wr.K != 1 {
			t.Fatalf("fresh query %d: ok %v, K %d, want its first period", 3+i, ok, wr.K)
		}
		e.FlushRearms(b)
		i++
	}
	if n := testing.AllocsPerRun(fresh-1, first); n != 0 {
		t.Errorf("first period of a fresh query: %v allocs, want 0", n)
	}
}

// BenchmarkEvaluateDueBatch is the cold-route layer cost of one dense
// period on one worker: a ~80-node disk on the 5,000-node, 2,000 m field,
// evaluated and re-armed through one reused batch. Like BenchmarkAdvance1M/Idle, it
// fails (not just reports) if the timed loop allocates at all, so one
// `-benchtime=1x` pass (make bench-eval-0alloc) gates the invariant.
func BenchmarkEvaluateDueBatch(b *testing.B) {
	e := denseEvalEngine(b)
	center := geom.Pt(1000, 1000)
	spec := TemporalSpec{Period: time.Second, Fresh: 2 * time.Second}
	if err := e.RegisterTemporalE(1, evalBatchRadius, center, spec, 0, Route{}); err != nil {
		b.Fatal(err)
	}
	wb := e.NewWorkerBatch()
	now := sim.Time(0)
	var area int
	step := func() {
		now += time.Second
		wr, ok := e.EvaluateDueBatch(1, center, now, wb)
		if !ok {
			b.Fatalf("period at %v not due", now)
		}
		e.FlushRearms(wb)
		area = wr.AreaNodes
	}
	step() // size the batch's scratch
	b.ReportAllocs()
	// Mallocs counts the runtime's own allocations too, so keep them out
	// of the timed loop: collect the set-up garbage first (a GC cycle
	// starting inside it allocates), and hold one P, as AllocsPerRun does,
	// so the scheduler starts no new thread mid-loop. One period runs on
	// one worker anyway.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		b.Fatalf("cold-route period allocated %d times over %d ops; the 0-alloc dense-period invariant is broken", allocs, b.N)
	}
	b.ReportMetric(float64(area), "area_nodes")
}
