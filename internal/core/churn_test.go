package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/radio"
	"mobiquery/internal/sim"
)

// TestEngineChurnUnderRace hammers the engine with every mutating operation
// at once — registration, deregistration, re-registration of freed ids,
// waypoint updates, node churn, full sweeps, and streaming evaluations —
// and is meaningful mainly under `go test -race`. It pins the service-shaped
// contract: users may join and leave while evaluation is in flight.
func TestEngineChurnUnderRace(t *testing.T) {
	region := geom.Square(1000)
	e := NewQueryEngine(region, 100, field.Uniform{Value: 20}, EngineConfig{Shards: 8, Workers: 8})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		e.UpsertNode(radio.NodeID(i), region.UniformPoint(rng))
	}

	const (
		stable   = 24 // queries that live for the whole test
		churners = 8  // goroutines cycling their own id through reg/dereg
		loops    = 60
	)
	for u := 1; u <= stable; u++ {
		if u%2 == 0 {
			e.Register(uint32(u), 150, geom.Pt(float64(u*10), 500))
			continue
		}
		spec := TemporalSpec{Period: time.Second, Deadline: 50 * time.Millisecond, Fresh: time.Second}
		if err := e.RegisterTemporalE(uint32(u), 150, geom.Pt(float64(u*10), 500), spec, 0, Route{}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Churners: deregister and immediately re-register the same id, so a
	// sweep in flight keeps meeting queries that appear and disappear.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := uint32(1000 + c)
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < loops; i++ {
				if err := e.RegisterE(id, 150, region.UniformPoint(rng)); err != nil {
					t.Errorf("churner %d: re-register of freed id: %v", c, err)
					return
				}
				e.UpdateWaypoint(id, region.UniformPoint(rng))
				_, _ = e.Evaluate(id, 0)
				e.Deregister(id)
			}
		}(c)
	}
	// Waypoint writers over the stable population.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < loops; i++ {
				e.UpdateWaypoint(uint32(rng.Intn(stable)+1), region.UniformPoint(rng))
			}
		}(w)
	}
	// Full sweeps racing the churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops/2; i++ {
			if res := e.EvaluateAll(sim.Time(i) * time.Second); len(res) < stable {
				t.Errorf("sweep %d returned %d results, below the stable population %d", i, len(res), stable)
				return
			}
		}
	}()
	// Streaming evaluations of the temporal queries, two goroutines per
	// query id so EvaluateDue's period counter is contested.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= loops; i++ {
				for u := 1; u <= stable; u += 2 {
					_, _ = e.EvaluateDue(uint32(u), sim.Time(i)*time.Second)
				}
			}
		}()
	}
	// Node churn under the evaluations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < loops*4; i++ {
			e.UpsertNode(radio.NodeID(i%200), region.UniformPoint(rng))
			if i%9 == 0 {
				e.RemoveNode(radio.NodeID(rng.Intn(200)))
			}
		}
	}()
	wg.Wait()

	if n := e.QueryCount(); n != stable {
		t.Fatalf("QueryCount after churn = %d, want %d", n, stable)
	}
	// Each temporal query was offered period indices 1..loops by two racing
	// goroutines; EvaluateDue must have advanced each exactly once per due
	// period, never double-counting.
	for u := 1; u <= stable; u += 2 {
		st, ok := e.Stats(uint32(u))
		if !ok {
			t.Fatalf("temporal query %d lost its state", u)
		}
		if st.Evaluated != loops || st.NextK != loops+1 {
			t.Errorf("query %d: evaluated %d periods (next %d), want %d", u, st.Evaluated, st.NextK, loops)
		}
	}
}
