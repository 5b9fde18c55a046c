package livefig

import (
	"testing"
	"time"

	"mobiquery/internal/field"
)

func smallChurn() ChurnConfig {
	cfg := DefaultChurn()
	cfg.Nodes = 1500
	cfg.RegionSide = 1000
	cfg.Static = 8
	cfg.Churners = 20
	cfg.Duration = 20 * time.Second
	return cfg
}

func TestChurnValidate(t *testing.T) {
	if err := DefaultChurn().Validate(); err != nil {
		t.Fatalf("default churn config invalid: %v", err)
	}
	bad := []func(*ChurnConfig){
		func(c *ChurnConfig) { c.Nodes = 0 },
		func(c *ChurnConfig) { c.Static = 0 },
		func(c *ChurnConfig) { c.Churners = -1 },
		func(c *ChurnConfig) { c.Radius = 0 },
		func(c *ChurnConfig) { c.SamplePeriod = -time.Second },
		func(c *ChurnConfig) { c.Period = 0 },
		func(c *ChurnConfig) { c.Deadline = -1 },
		func(c *ChurnConfig) { c.Tick = 0 },
		func(c *ChurnConfig) { c.Duration = c.Period / 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultChurn()
		mutate(&cfg)
		if _, err := RunChurn(cfg); err == nil {
			t.Errorf("mutation %d: expected a configuration error", i)
		}
	}
}

func TestChurnRunsAndCounts(t *testing.T) {
	cfg := smallChurn()
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	// Static users stream for the whole run: Duration/Period results each.
	staticPeriods := cfg.Static * int(cfg.Duration/cfg.Period)
	if res.Evaluations < staticPeriods {
		t.Errorf("evaluations = %d, want at least the static population's %d", res.Evaluations, staticPeriods)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Errorf("churn did not churn: %d joins, %d leaves", res.Joins, res.Leaves)
	}
	if res.Joins < res.Leaves {
		t.Errorf("more leaves (%d) than joins (%d)", res.Leaves, res.Joins)
	}
	if res.PeakLive < cfg.Static || res.PeakLive > cfg.Static+cfg.Churners {
		t.Errorf("peak live population %d outside [%d, %d]", res.PeakLive, cfg.Static, cfg.Static+cfg.Churners)
	}
	// Period and tick are aligned, so nothing should be late; the 1 s
	// sampling against a 1 s freshness window keeps everything fresh.
	if res.Late != 0 {
		t.Errorf("aligned ticks produced %d late results", res.Late)
	}
	if res.MeanFresh <= 0 {
		t.Error("no sensor ever contributed; geometry or sampling is off")
	}
}

// TestChurnDoesNotPerturbStaticUsers pins the isolation property behind
// dynamic membership: the static users' full per-period outcome digest is
// identical whether or not a churning population shares the engine.
func TestChurnDoesNotPerturbStaticUsers(t *testing.T) {
	withChurn := smallChurn()
	alone := withChurn
	alone.Churners = 0
	a, err := RunChurn(withChurn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(alone)
	if err != nil {
		t.Fatal(err)
	}
	if a.StaticDigest != b.StaticDigest {
		t.Fatalf("churners changed the static users' results: digest %#x with churn, %#x without", a.StaticDigest, b.StaticDigest)
	}
	if b.Joins != 0 || b.Leaves != 0 {
		t.Errorf("churner-free run reported churn: %d/%d", b.Joins, b.Leaves)
	}
}

// TestChurnDeterministicAcrossWorkerCounts pins the concurrency invariant
// on the temporal path: pool width and shard count never change results.
func TestChurnDeterministicAcrossWorkerCounts(t *testing.T) {
	base := smallChurn()
	ref, err := RunChurn(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		for _, s := range []int{1, 16} {
			cfg := base
			cfg.Workers = w
			cfg.Shards = s
			got, err := RunChurn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.StaticDigest != ref.StaticDigest || got.Evaluations != ref.Evaluations ||
				got.StaleExclusions != ref.StaleExclusions || got.MeanFresh != ref.MeanFresh {
				t.Fatalf("workers=%d shards=%d: results moved (digest %#x vs %#x)", w, s, got.StaticDigest, ref.StaticDigest)
			}
		}
	}
}

// TestChurnCoarseTicksGoLate pins the deadline ledger: when the clock
// advances in steps coarser than the deadline slack allows, periods come
// due mid-step and their results are marked late.
func TestChurnCoarseTicksGoLate(t *testing.T) {
	cfg := smallChurn()
	cfg.Churners = 0
	cfg.Period = time.Second
	cfg.Fresh = time.Second
	cfg.Tick = 300 * time.Millisecond // does not divide the period
	cfg.Deadline = 0
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Late == 0 {
		t.Fatal("misaligned ticks produced no late results; deadline accounting is dead")
	}
	// A generous slack forgives the misalignment entirely.
	cfg.Deadline = cfg.Tick
	res2, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Late != 0 {
		t.Fatalf("slack of one tick still left %d late results", res2.Late)
	}
}

func TestChurnStaleExclusions(t *testing.T) {
	cfg := smallChurn()
	cfg.Churners = 0
	cfg.SamplePeriod = 1500 * time.Millisecond // slower than the window
	cfg.Fresh = 500 * time.Millisecond
	cfg.Field = field.Uniform{Value: 7}
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleExclusions == 0 {
		t.Fatal("sampling slower than the freshness window excluded nothing; the window is dead")
	}
}
