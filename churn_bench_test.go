package mobiquery_test

// The churn figure runs on the session API through internal/livefig, which
// imports this package, so its benchmark lives in the external test
// package; the benchmark keeps its name and package path.

import (
	"testing"
	"time"

	"mobiquery/internal/livefig"
)

// BenchmarkChurnScenario runs the dynamic-membership figure (streaming
// subscriptions with users joining and leaving a live service) at a
// reduced population and reports evaluations per second.
func BenchmarkChurnScenario(b *testing.B) {
	b.ReportAllocs()
	cfg := livefig.DefaultChurn()
	cfg.Nodes = 2000
	cfg.RegionSide = 1000
	cfg.Static = 20
	cfg.Churners = 40
	cfg.Duration = 30 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := livefig.RunChurn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Evaluations)/res.Elapsed.Seconds(), "evals/s")
		b.ReportMetric(res.MeanFresh, "fresh-sensors")
	}
}
