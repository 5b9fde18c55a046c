package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiquery/internal/field"
	"mobiquery/internal/geom"
	"mobiquery/internal/sim"
)

// scheduleTestEngine builds an engine over an empty node field: window
// evaluation then visits no sensors, so scheduler tests exercise the
// temporal bookkeeping without spatial cost.
func scheduleTestEngine(t testing.TB, workers int) *QueryEngine {
	t.Helper()
	e, err := NewQueryEngineE(geom.Square(100), 10, field.Uniform{Value: 1}, EngineConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSchedulePopOrder pins the pop contract: entries come out in
// ascending (due, id) order, ties broken by id, regardless of insertion
// order.
func TestSchedulePopOrder(t *testing.T) {
	s := NewSchedule()
	s.Upsert(3, 10*time.Second)
	s.Upsert(1, 20*time.Second)
	s.Upsert(2, 10*time.Second)
	s.Upsert(4, 5*time.Second)
	got := s.PopDue(15*time.Second, nil)
	want := []DueEntry{{4, 5 * time.Second}, {2, 10 * time.Second}, {3, 10 * time.Second}}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("schedule holds %d entries after pop, want 1", n)
	}
	if e, ok := s.NextDue(); !ok || e.ID != 1 {
		t.Fatalf("peek = %v/%v, want id 1", e, ok)
	}
	// Upsert moves an existing entry.
	s.Upsert(1, time.Second)
	if got := s.PopDue(time.Second, nil); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("rescheduled pop = %v, want id 1", got)
	}
	// Remove of a missing id is a no-op; popping an empty schedule too.
	s.Remove(99)
	if got := s.PopDue(time.Hour, nil); len(got) != 0 {
		t.Fatalf("empty schedule popped %v", got)
	}
}

// TestSchedulePropertyAgainstBruteForce drives 10k temporal queries
// through a long random interleaving of RegisterTemporalE, EvaluateDue,
// Deregister, and PopDue, checking after every operation batch that the
// engine's schedule agrees exactly with a brute-force O(n) scan over a
// shadow map of every query's next due period.
func TestSchedulePropertyAgainstBruteForce(t *testing.T) {
	const nIDs = 10_000
	e := scheduleTestEngine(t, 1)
	rng := rand.New(rand.NewSource(7))

	// shadow mirrors what the schedule must hold: next due per live query.
	shadow := make(map[uint32]sim.Time, nIDs)
	spec := func(id uint32) TemporalSpec {
		return TemporalSpec{Period: time.Duration(1+id%7) * time.Second}
	}

	register := func(id uint32, now sim.Time) {
		if _, live := shadow[id]; live {
			return
		}
		if err := e.RegisterTemporalE(id, 5, geom.Pt(50, 50), spec(id), now, Route{}); err != nil {
			t.Fatal(err)
		}
		shadow[id] = now + spec(id).Period
	}
	for id := uint32(1); id <= nIDs; id++ {
		register(id, 0)
	}

	now := sim.Time(0)
	for step := 0; step < 200; step++ {
		now += sim.Time(rng.Int63n(int64(3 * time.Second)))
		// A burst of random churn and direct evaluations between pops.
		for i := 0; i < 50; i++ {
			id := uint32(1 + rng.Intn(nIDs))
			switch rng.Intn(3) {
			case 0:
				e.Deregister(id)
				delete(shadow, id)
			case 1:
				register(id, now)
			case 2:
				due, live := shadow[id]
				wr, ok := e.EvaluateDue(id, now)
				wantOK := live && due <= now
				if ok != wantOK {
					t.Fatalf("step %d: EvaluateDue(%d, %v) ok=%v, want %v", step, id, now, ok, wantOK)
				}
				if ok {
					shadow[id] = wr.Due + spec(id).Period
				}
			}
		}

		// The scheduler's pop must equal the brute-force scan: every live
		// query with a due period, in ascending (due, id) order.
		var want []DueEntry
		for id, due := range shadow {
			if due <= now {
				want = append(want, DueEntry{ID: id, Due: due})
			}
		}
		got := e.PopDue(now, nil)
		if len(got) != len(want) {
			t.Fatalf("step %d: popped %d entries, brute force finds %d", step, len(got), len(want))
		}
		seen := make(map[uint32]sim.Time, len(got))
		for i, de := range got {
			if i > 0 && (got[i-1].Due > de.Due || (got[i-1].Due == de.Due && got[i-1].ID >= de.ID)) {
				t.Fatalf("step %d: pop order violated at %d: %v then %v", step, i, got[i-1], de)
			}
			if shadow[de.ID] != de.Due {
				t.Fatalf("step %d: popped (%d, %v), shadow says next due %v", step, de.ID, de.Due, shadow[de.ID])
			}
			seen[de.ID] = de.Due
		}
		for _, w := range want {
			if seen[w.ID] != w.Due {
				t.Fatalf("step %d: brute force expects %v, not popped", step, w)
			}
		}
		// Drive every popped query forward like a clock driver would, so
		// the schedule is re-armed for the next round.
		for _, de := range got {
			for shadow[de.ID] <= now {
				wr, ok := e.EvaluateDue(de.ID, now)
				if !ok {
					t.Fatalf("step %d: popped query %d refused evaluation", step, de.ID)
				}
				shadow[de.ID] = wr.Due + spec(de.ID).Period
			}
		}
	}
	if len(shadow) == 0 {
		t.Fatal("property test degenerated: no live queries left")
	}
}

// TestScheduleConcurrentChurn hammers the schedule from many goroutines —
// registration, evaluation, deregistration, and pops on overlapping id
// ranges — and checks it converges to exactly one entry per live temporal
// query. Run under -race this doubles as the scheduler's race test.
func TestScheduleConcurrentChurn(t *testing.T) {
	e := scheduleTestEngine(t, 4)
	const (
		goroutines = 8
		perG       = 300
		idSpace    = 64 // overlapping ranges force contention
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			spec := TemporalSpec{Period: time.Second}
			for i := 0; i < perG; i++ {
				id := uint32(1 + rng.Intn(idSpace))
				now := sim.Time(rng.Int63n(int64(time.Minute)))
				switch rng.Intn(4) {
				case 0:
					_ = e.RegisterTemporalE(id, 5, geom.Pt(50, 50), spec, now, Route{})
				case 1:
					e.Deregister(id)
				case 2:
					e.EvaluateDue(id, now)
				case 3:
					for _, de := range e.PopDue(now, nil) {
						// Re-arm popped queries as a clock driver would.
						e.EvaluateDue(de.ID, de.Due)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesce: every live temporal query must hold exactly one schedule
	// entry, at its NextDue.
	live := 0
	for id := uint32(1); id <= idSpace; id++ {
		if _, _, ok := e.NextDue(id); ok {
			live++
		}
	}
	if n := e.sched.Len(); n != live {
		t.Fatalf("schedule holds %d entries, %d queries live", n, live)
	}
	far := sim.Time(1000 * time.Hour)
	popped := e.PopDue(far, nil)
	if len(popped) != live {
		t.Fatalf("draining pop returned %d entries, %d queries live", len(popped), live)
	}
	for _, de := range popped {
		_, due, ok := e.NextDue(de.ID)
		if !ok || due != de.Due {
			t.Fatalf("entry %v disagrees with NextDue (%v, %v)", de, due, ok)
		}
	}
}

// TestScheduleStripedMatchesSingle is the striping property test: over 10k
// randomized upsert/remove/pop interleavings, every striped layout must
// produce element-wise identical PopDue output (and identical Len) to the
// single-stripe baseline. This is the determinism argument the service's
// digest pins rest on — stripe count is a pure concurrency knob.
func TestScheduleStripedMatchesSingle(t *testing.T) {
	if got := NewScheduleStriped(3).StripeCount(); got != 4 {
		t.Fatalf("StripeCount(3 requested) = %d, want rounded up to 4", got)
	}
	if got := NewScheduleStriped(1000).StripeCount(); got != maxScheduleStripes {
		t.Fatalf("StripeCount(1000 requested) = %d, want clamp %d", got, maxScheduleStripes)
	}
	rng := rand.New(rand.NewSource(11))
	single := NewSchedule()
	striped := []*Schedule{NewScheduleStriped(4), NewScheduleStriped(16), NewScheduleStriped(64)}
	all := append([]*Schedule{single}, striped...)

	const idSpace = 512
	now := sim.Time(0)
	var want, got []DueEntry
	for op := 0; op < 10_000; op++ {
		switch rng.Intn(5) {
		case 0, 1:
			id := uint32(1 + rng.Intn(idSpace))
			due := now + sim.Time(rng.Int63n(int64(10*time.Second)))
			for _, s := range all {
				s.Upsert(id, due)
			}
		case 2:
			id := uint32(1 + rng.Intn(idSpace))
			for _, s := range all {
				s.Remove(id)
			}
		default:
			now += sim.Time(rng.Int63n(int64(3 * time.Second)))
			want = single.PopDue(now, want[:0])
			for _, s := range striped {
				got = s.PopDue(now, got[:0])
				if len(got) != len(want) {
					t.Fatalf("op %d: %d stripes popped %d entries, single-heap popped %d",
						op, s.StripeCount(), len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("op %d: %d stripes popped %v at %d, single-heap %v",
							op, s.StripeCount(), got[i], i, want[i])
					}
				}
				if len(want) > 0 {
					st := s.Stats()
					if st.LastMergeDepth < 1 || st.LastMergeDepth > s.StripeCount() {
						t.Fatalf("op %d: merge depth %d outside [1, %d]", op, st.LastMergeDepth, s.StripeCount())
					}
				}
			}
		}
		if op%1000 == 0 {
			for _, s := range striped {
				if s.Len() != single.Len() {
					t.Fatalf("op %d: %d stripes hold %d entries, single-heap %d",
						op, s.StripeCount(), s.Len(), single.Len())
				}
			}
		}
	}
	// Final drain: whatever is left must come out identically too.
	far := sim.Time(1000 * time.Hour)
	want = single.PopDue(far, want[:0])
	for _, s := range striped {
		got = s.PopDue(far, got[:0])
		if len(got) != len(want) {
			t.Fatalf("final drain: %d stripes popped %d, single-heap %d", s.StripeCount(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("final drain: entry %d = %v, single-heap %v", i, got[i], want[i])
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("property test degenerated: nothing left to drain")
	}
}

// TestScheduleStripedConcurrentChurn hammers a striped schedule directly
// from many goroutines — upserts, removes, pops, peeks, and stats on
// overlapping id ranges spanning every stripe — then checks the quiesced
// invariants: a draining pop is sorted, duplicate-free, agrees with Stats,
// and empties the schedule. Under -race this is the scheduler's
// cross-stripe race test (the engine-level TestScheduleConcurrentChurn
// covers the registry integration).
func TestScheduleStripedConcurrentChurn(t *testing.T) {
	s := NewScheduleStriped(8)
	const (
		goroutines = 8
		perG       = 2000
		idSpace    = 256 // spans every stripe; overlap forces contention
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var buf []DueEntry
			for i := 0; i < perG; i++ {
				id := uint32(1 + rng.Intn(idSpace))
				now := sim.Time(rng.Int63n(int64(time.Minute)))
				switch rng.Intn(6) {
				case 0, 1, 2:
					s.Upsert(id, now+sim.Time(rng.Int63n(int64(time.Second))))
				case 3:
					s.Remove(id)
				case 4:
					buf = s.PopDue(now, buf[:0])
					for _, de := range buf {
						// Re-arm popped entries as a clock driver would.
						s.Upsert(de.ID, de.Due+sim.Time(time.Second))
					}
				case 5:
					s.NextDue()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Len != s.Len() {
		t.Fatalf("Stats().Len = %d, Len() = %d", st.Len, s.Len())
	}
	sum := 0
	for _, n := range st.StripeLens {
		sum += n
	}
	if sum != st.Len {
		t.Fatalf("stripe lens sum to %d, Len is %d", sum, st.Len)
	}
	popped := s.PopDue(sim.Time(1000*time.Hour), nil)
	if len(popped) != st.Len {
		t.Fatalf("draining pop returned %d entries, schedule held %d", len(popped), st.Len)
	}
	seen := make(map[uint32]bool, len(popped))
	for i, de := range popped {
		if i > 0 && !dueLess(popped[i-1], de) {
			t.Fatalf("drain order violated at %d: %v then %v", i, popped[i-1], de)
		}
		if seen[de.ID] {
			t.Fatalf("id %d popped twice", de.ID)
		}
		seen[de.ID] = true
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("schedule holds %d entries after full drain", n)
	}
}

// BenchmarkSchedulePopIdle measures the idle-tick cost with 100k queries
// scheduled and nothing due: the peek that makes Advance O(1).
func BenchmarkSchedulePopIdle(b *testing.B) {
	s := NewSchedule()
	for id := uint32(1); id <= 100_000; id++ {
		s.Upsert(id, time.Hour+sim.Time(id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.PopDue(time.Minute, nil); len(got) != 0 {
			b.Fatal("nothing should be due")
		}
	}
}

// BenchmarkScheduleScanBaseline is the pre-scheduler idle tick over the
// same population: a brute-force scan of every query's next due. This is
// what each Advance cost before the schedule existed.
func BenchmarkScheduleScanBaseline(b *testing.B) {
	next := make(map[uint32]sim.Time, 100_000)
	for id := uint32(1); id <= 100_000; id++ {
		next[id] = time.Hour + sim.Time(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, due := range next {
			if due <= time.Minute {
				n++
			}
		}
		if n != 0 {
			b.Fatal("nothing should be due")
		}
	}
}

// BenchmarkScheduleContended measures the striping payoff under parallel
// load: GOMAXPROCS goroutines hammer Upsert (the re-arm pattern of parallel
// EvaluateDue workers) with a PopDue-and-re-arm cycle mixed in, over 100k
// and 1M resident entries at stripe counts 1, 4, and 16. On one core the
// stripe counts tie (the mutex is never contended); the spread between
// stripes=1 and stripes=16 on a multicore box is the serialization the
// striped scheduler removes.
func BenchmarkScheduleContended(b *testing.B) {
	for _, entries := range []int{100_000, 1_000_000} {
		for _, stripes := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("entries=%d/stripes=%d", entries, stripes), func(b *testing.B) {
				s := NewScheduleStriped(stripes)
				if s.StripeCount() != stripes {
					b.Fatalf("stripe count %d, want %d", s.StripeCount(), stripes)
				}
				// Entry id hashing spreads ids across stripes; dues start
				// one hour out so the population stays resident.
				base := sim.Time(time.Hour)
				for id := 1; id <= entries; id++ {
					s.Upsert(uint32(id), base+sim.Time(id))
				}
				var ctr atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					var buf []DueEntry
					for pb.Next() {
						i := ctr.Add(1)
						// Re-arm a pseudo-random resident entry further out.
						id := uint32(1 + (uint64(i)*2654435761)%uint64(entries))
						s.Upsert(id, base+sim.Time(i)+sim.Time(entries))
						if i%1024 == 0 {
							// A popper sweeps anything the re-arms left due
							// and re-arms it, like an Advance batch would.
							buf = s.PopDue(base+sim.Time(i), buf[:0])
							for _, de := range buf {
								s.Upsert(de.ID, de.Due+sim.Time(entries))
							}
						}
					}
				})
			})
		}
	}
}

// BenchmarkScheduleCycle measures the steady-state per-query cost of the
// heap itself: pop one due entry and re-arm it one period later, 100k
// queries resident. This is the O(log n) bound the 4-ary layout was
// picked to minimize; swap arity to compare layouts.
func BenchmarkScheduleCycle(b *testing.B) {
	s := NewSchedule()
	const n = 100_000
	period := sim.Time(n) // ids 1..n due at 1..n: one due per tick
	for id := uint32(1); id <= n; id++ {
		s.Upsert(id, sim.Time(id))
	}
	var buf []DueEntry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i + 1)
		buf = s.PopDue(now, buf[:0])
		for _, de := range buf {
			s.Upsert(de.ID, de.Due+period)
		}
	}
}

// TestScheduleStatsInto pins the allocation-reusing snapshot: it matches
// Stats exactly, reuses the caller's StripeLens capacity, and a warm call
// allocates nothing.
func TestScheduleStatsInto(t *testing.T) {
	s := NewScheduleStriped(8)
	for id := uint32(1); id <= 100; id++ {
		s.Upsert(id, sim.Time(id)*time.Millisecond)
	}
	s.PopDue(20*time.Millisecond, nil)

	var into ScheduleStats
	s.StatsInto(&into)
	direct := s.Stats()
	if into.Stripes != direct.Stripes || into.Len != direct.Len ||
		into.LastMergeDepth != direct.LastMergeDepth ||
		len(into.StripeLens) != len(direct.StripeLens) {
		t.Fatalf("StatsInto = %+v, Stats = %+v", into, direct)
	}
	for i := range into.StripeLens {
		if into.StripeLens[i] != direct.StripeLens[i] {
			t.Fatalf("stripe %d: StatsInto %d != Stats %d", i, into.StripeLens[i], direct.StripeLens[i])
		}
	}
	if into.LastMergeDepth != s.LastMergeDepth() {
		t.Fatalf("LastMergeDepth accessor %d != snapshot %d", s.LastMergeDepth(), into.LastMergeDepth)
	}
	before := &into.StripeLens[0]
	if allocs := testing.AllocsPerRun(100, func() { s.StatsInto(&into) }); allocs != 0 {
		t.Fatalf("warm StatsInto allocates %v per run", allocs)
	}
	if &into.StripeLens[0] != before {
		t.Fatalf("warm StatsInto replaced the StripeLens backing array")
	}
}
