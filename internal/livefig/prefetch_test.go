package livefig

import (
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/analysis"
)

func smallPrefetch() PrefetchConfig {
	cfg := DefaultPrefetch()
	cfg.Nodes = 1500
	cfg.RegionSide = 1000
	cfg.Users = 10
	cfg.Duration = 20 * time.Second
	return cfg
}

func TestPrefetchValidate(t *testing.T) {
	if err := DefaultPrefetch().Validate(); err != nil {
		t.Fatalf("default prefetch config invalid: %v", err)
	}
	bad := []func(*PrefetchConfig){
		func(c *PrefetchConfig) { c.Nodes = 0 },
		func(c *PrefetchConfig) { c.Users = 0 },
		func(c *PrefetchConfig) { c.Radius = 0 },
		func(c *PrefetchConfig) { c.SamplePeriod = -time.Second },
		func(c *PrefetchConfig) { c.Period = 0 },
		func(c *PrefetchConfig) { c.Deadline = -1 },
		func(c *PrefetchConfig) { c.Tick = 0 },
		func(c *PrefetchConfig) { c.Duration = c.Period / 2 },
		func(c *PrefetchConfig) { c.Lookahead = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultPrefetch()
		mutate(&cfg)
		if _, err := RunPrefetch(cfg); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

// TestPrefetchBeatsOnDemand pins the scenario's headline claim: both
// prefetching strategies deliver fewer late periods and fewer stale
// exclusions than on-demand collection over the identical workload, with
// prefetched readings actually doing the work.
func TestPrefetchBeatsOnDemand(t *testing.T) {
	cfg := smallPrefetch()
	res, err := RunPrefetch(cfg)
	if err != nil {
		t.Fatalf("RunPrefetch: %v", err)
	}
	od, jit, gp := res.OnDemand, res.JIT, res.Greedy
	// Users × the periods the tick grid reaches (the last tick lands at
	// 19.8 s, short of the period-20 boundary).
	lastTick := cfg.Duration / cfg.Tick * cfg.Tick
	wantEvals := cfg.Users * int(lastTick/cfg.Period)
	for _, out := range res.Outcomes() {
		if out.Evaluations != wantEvals {
			t.Errorf("%v: %d evaluations, want %d", out.Strategy, out.Evaluations, wantEvals)
		}
	}
	if od.Late == 0 || od.StaleExclusions == 0 {
		t.Fatalf("on-demand baseline shows no pain (late %d, stale %d); the comparison is vacuous", od.Late, od.StaleExclusions)
	}
	if jit.Late >= od.Late || gp.Late >= od.Late {
		t.Errorf("late periods: on-demand %d, jit %d, greedy %d — prefetching should win", od.Late, jit.Late, gp.Late)
	}
	if jit.StaleExclusions >= od.StaleExclusions || gp.StaleExclusions >= od.StaleExclusions {
		t.Errorf("stale exclusions: on-demand %d, jit %d, greedy %d — prefetching should win", od.StaleExclusions, jit.StaleExclusions, gp.StaleExclusions)
	}
	if jit.PrefetchedReadings == 0 || gp.PrefetchedReadings == 0 {
		t.Error("prefetching strategies served no prefetched readings")
	}
	if od.PrefetchedReadings != 0 || od.WarmupPeriods != 0 || od.PeakOutstanding != 0 {
		t.Errorf("on-demand pass carries prefetch artifacts: %+v", od)
	}
	if jit.WarmupPeriods == 0 {
		t.Error("zero-advance profiles should cost warmup periods (equation 16)")
	}
	// JIT readings are captured at the boundary; greedy holds them from the
	// window opening, so its contributors run staler.
	if jit.MeanStaleness >= gp.MeanStaleness {
		t.Errorf("mean staleness: jit %v should be below greedy %v", jit.MeanStaleness, gp.MeanStaleness)
	}
}

// TestPrefetchStorageMatchesAnalysis pins the live storage ledger to the
// Section 5.2 closed forms: JIT's outstanding chains stay at the
// equation-12 constant while Greedy holds its full lookahead window.
func TestPrefetchStorageMatchesAnalysis(t *testing.T) {
	cfg := smallPrefetch()
	res, err := RunPrefetch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := analysis.QueryParams{Period: cfg.Period, Fresh: cfg.Fresh, Sleep: cfg.SamplePeriod}
	if want := analysis.StorageJIT(q); res.JIT.PeakOutstanding != want {
		t.Errorf("JIT peak outstanding = %d, want the equation-12 constant %d", res.JIT.PeakOutstanding, want)
	}
	if res.Greedy.PeakOutstanding != cfg.Lookahead {
		t.Errorf("Greedy peak outstanding = %d, want the lookahead %d", res.Greedy.PeakOutstanding, cfg.Lookahead)
	}
	if res.Greedy.PeakOutstanding <= res.JIT.PeakOutstanding {
		t.Error("greedy should store more chains ahead than JIT (equations 11 vs 12)")
	}
	if res.Greedy.Strategy.Lookahead != cfg.Lookahead {
		t.Errorf("resolved greedy strategy = %+v", res.Greedy.Strategy)
	}
}

// TestPrefetchDigestPinned pins determinism and the concurrency invariant:
// identical configurations agree on every strategy digest, whatever the
// shard and worker sizing, and a re-run changes nothing.
func TestPrefetchDigestPinned(t *testing.T) {
	base := smallPrefetch()
	ref, err := RunPrefetch(base)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunPrefetch(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range again.Outcomes() {
		if out.Digest != ref.Outcomes()[i].Digest {
			t.Fatalf("%v: digest moved between identical runs (%#x vs %#x)", out.Strategy, out.Digest, ref.Outcomes()[i].Digest)
		}
	}
	for _, w := range []int{1, 3} {
		for _, s := range []int{1, 16} {
			cfg := base
			cfg.Workers = w
			cfg.Shards = s
			got, err := RunPrefetch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, out := range got.Outcomes() {
				want := ref.Outcomes()[i]
				if out.Digest != want.Digest || out.Late != want.Late || out.StaleExclusions != want.StaleExclusions {
					t.Fatalf("workers=%d shards=%d %v: results moved (digest %#x vs %#x)", w, s, out.Strategy, out.Digest, want.Digest)
				}
			}
		}
	}
}

// TestGreedyShortLookaheadStaysLate pins the equation-10 failure mode: a
// lookahead window smaller than the forward margin can never stage a period
// by its boundary, so every greedy period stays as late as on-demand ones.
func TestGreedyShortLookaheadStaysLate(t *testing.T) {
	cfg := smallPrefetch()
	cfg.Lookahead = 2 // margin is (3s + 2*1s)/1s = 5 periods
	res, err := RunPrefetch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Greedy.PrefetchedReadings != 0 {
		t.Errorf("a too-short lookahead still served %d prefetched readings", res.Greedy.PrefetchedReadings)
	}
	if res.Greedy.Late != res.OnDemand.Late {
		t.Errorf("unstaged greedy lateness (%d) should match on-demand (%d)", res.Greedy.Late, res.OnDemand.Late)
	}
	spec := mobiquery.QuerySpec{Radius: 1, Period: time.Second, Strategy: mobiquery.GreedyStrategy(2)}
	if err := spec.Validate(); err != nil {
		t.Fatalf("short lookahead is legal, just ineffective: %v", err)
	}
}
