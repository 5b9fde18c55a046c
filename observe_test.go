package mobiquery

import (
	"context"
	"strings"
	"testing"
	"time"

	"mobiquery/internal/obs"
)

// smallSpec is centerSpec shrunk below the pyramid attachment threshold so
// its periods are served cold (on-demand), pinning the cold class.
func smallSpec() QuerySpec {
	spec := centerSpec()
	spec.Radius = 50
	return spec
}

// TestTraceSpans pins the period lifecycle tracer end to end on a manual
// clock: one span per delivered period, stamps in stage order, cold class
// for a plain on-demand subscription, delivered outcome, and ring eviction
// at depth.
func TestTraceSpans(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling(), WithTraceDepth(4))
	sub, err := svc.Subscribe(context.Background(), smallSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	const periods = 6
	for i := 0; i < periods; i++ {
		if err := svc.Advance(2 * time.Second); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	spans := sub.TraceSpans(nil)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring depth 4", len(spans))
	}
	for i, sp := range spans {
		wantK := periods - 4 + i + 1
		if sp.K != wantK {
			t.Errorf("span %d: K = %d, want %d", i, sp.K, wantK)
		}
		if sp.Due != time.Duration(sp.K)*2*time.Second {
			t.Errorf("span %d: due %v, want %v", i, sp.Due, time.Duration(sp.K)*2*time.Second)
		}
		if sp.Class != obs.ClassCold {
			t.Errorf("span %d: class %v, want cold", i, sp.Class)
		}
		if sp.Outcome != obs.OutcomeDelivered {
			t.Errorf("span %d: outcome %v, want delivered", i, sp.Outcome)
		}
		if !(sp.ArmedNS <= sp.PoppedNS && sp.PoppedNS <= sp.EvalStartNS &&
			sp.EvalStartNS <= sp.EvalEndNS && sp.EvalEndNS <= sp.DeliveredNS) {
			t.Errorf("span %d: stamps out of stage order: %+v", i, sp)
		}
	}
	// Consecutive spans chain: period k+1's armed stamp is period k's
	// evaluation end.
	for i := 1; i < len(spans); i++ {
		if spans[i].ArmedNS != spans[i-1].EvalEndNS {
			t.Errorf("span %d armed %d != span %d eval end %d",
				i, spans[i].ArmedNS, i-1, spans[i-1].EvalEndNS)
		}
	}
}

// TestTraceDisabled pins WithTraceDepth(0): no ring, empty snapshots, and
// the service still delivers.
func TestTraceDisabled(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling(), WithTraceDepth(0))
	sub, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := svc.Advance(2 * time.Second); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := sub.TraceSpans(nil); len(got) != 0 {
		t.Fatalf("tracing disabled but got %d spans", len(got))
	}
	if st := svc.Stats(); st.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", st.Delivered)
	}
}

// TestServiceStatsInto pins the reuse variant: identical to Stats, reusing
// the SchedStripeLens backing array, allocation-free once warm.
func TestServiceStatsInto(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	if _, err := svc.Subscribe(context.Background(), centerSpec(), StaticPosition(Pt(225, 225))); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := svc.Advance(2 * time.Second); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	var into ServiceStats
	svc.StatsInto(&into)
	direct := svc.Stats()
	if into.Now != direct.Now || into.Subscribers != direct.Subscribers ||
		into.Delivered != direct.Delivered || into.SchedLen != direct.SchedLen ||
		into.SchedStripes != direct.SchedStripes ||
		len(into.SchedStripeLens) != len(direct.SchedStripeLens) {
		t.Fatalf("StatsInto = %+v, Stats = %+v", into, direct)
	}
	before := &into.SchedStripeLens[0]
	if allocs := testing.AllocsPerRun(100, func() { svc.StatsInto(&into) }); allocs != 0 {
		t.Fatalf("warm StatsInto allocates %v per run", allocs)
	}
	if &into.SchedStripeLens[0] != before {
		t.Fatalf("warm StatsInto replaced the SchedStripeLens backing array")
	}
}

// TestServiceMetricsExposition pins the service registry: deterministic
// counters after a manual-clock run, validator-clean exposition, and the
// scrape-time ledger agreeing with Stats.
func TestServiceMetricsExposition(t *testing.T) {
	svc := mustOpen(t, WithAlignedSampling())
	sub, err := svc.Subscribe(context.Background(), smallSpec(), StaticPosition(Pt(225, 225)))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := svc.Advance(time.Second); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	var sb strings.Builder
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if _, _, err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	st := svc.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (3 x 1s over a 2s period)", st.Delivered)
	}
	for _, want := range []string{
		"mobiquery_advance_ticks_total 3\n",
		"mobiquery_advance_idle_ticks_total 2\n",
		`mobiquery_periods_evaluated_total{class="cold"} 1` + "\n",
		"mobiquery_results_delivered_total 1\n",
		"mobiquery_subscribers 1\n",
		"mobiquery_virtual_time_ns 3000000000\n",
		"mobiquery_advance_pop_batch_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	_ = sub
}

// TestDeliveryOrderIndependentOfWorkers pins what lane-order delivery
// promises. A coarse step makes several periods due per subscription;
// each subscription still receives its results in increasing K, and the
// span firehose — the only surface that sees the order across
// subscriptions — records the same (Trace, K) sequence for 1 and 4
// workers.
func TestDeliveryOrderIndependentOfWorkers(t *testing.T) {
	type key struct {
		trace TraceID
		k     int
	}
	run := func(workers int) []key {
		nc := testNetwork()
		nc.Service.Workers = workers
		svc, err := Open(context.Background(), nc, WithResultBuffer(64))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var subs []*Subscription
		for i := 0; i < 12; i++ {
			spec := QuerySpec{Radius: 100, Period: time.Duration(400+100*(i%3)) * time.Millisecond, Trace: TraceID(i + 1)}
			sub, err := svc.Subscribe(context.Background(), spec, LinearMotion(Pt(100+float64(20*i), 200), 1, 0))
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
			if i%4 == 3 {
				if err := svc.Advance(130 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			if err := svc.Advance(3 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		for _, sub := range subs {
			rs := drain(sub)
			if len(rs) < 3*3000/600 {
				t.Fatalf("workers=%d: subscription %d streamed only %d periods", workers, sub.ID(), len(rs))
			}
			for i, r := range rs {
				if r.K != i+1 {
					t.Fatalf("workers=%d: subscription %d result %d has K %d", workers, sub.ID(), i, r.K)
				}
			}
		}
		spans, _, dropped := svc.FirehoseSpans(nil)
		if dropped != 0 {
			t.Fatalf("firehose dropped %d spans", dropped)
		}
		out := make([]key, len(spans))
		for i, sp := range spans {
			out[i] = key{sp.Trace, sp.K}
		}
		return out
	}
	one, four := run(1), run(4)
	if len(one) != len(four) {
		t.Fatalf("firehose holds %d spans with 1 worker, %d with 4", len(one), len(four))
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("firehose span %d: %+v with 1 worker, %+v with 4", i, one[i], four[i])
		}
	}
}
