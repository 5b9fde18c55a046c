// Package prefetch plans predictive sampling along a mobile user's motion
// profile for the live session path: the bridge between the paper's
// prefetching protocol (Section 4) and closed-form timing analysis
// (Section 5) on one side, and the streaming query engine on the other.
//
// A Planner is attached to one subscription. From the subscriber's motion
// profile it derives, for every upcoming period boundary, where the query
// area will be (the pickup point), when the prefetch chain for that period
// must be dispatched (the equation-10 forward time), when the in-area nodes
// capture their readings, and how long those prefetched readings may be
// served (the equation-10 hold-time ledger). The engine asks the plan once
// per period (PlanPeriod, its PrefetchPlan route): nodes inside the
// predicted pickup circle are served their prefetched reading timestamps
// during windowed evaluation, and a period staged at the pickup point by
// its boundary is credited as evaluated at the boundary rather than at the
// clock tick that collected it. Periods inside the equation-16 warmup interval after a new
// profile fall back to on-demand behavior and are flagged Warmup.
package prefetch

import "fmt"

// Kind selects the prefetching strategy of a live subscription.
type Kind int

const (
	// OnDemand disables prefetching: readings come from the node sampling
	// schedule as-is and periods are evaluated at the clock tick that
	// collects them. The zero value, and exactly the pre-planner behavior.
	OnDemand Kind = iota
	// JIT is the paper's just-in-time prefetching: each period's chain is
	// dispatched at the latest safe moment (equation 10) and its readings
	// are captured at the boundary itself, so storage ahead of the user
	// stays at the equation-12 constant and readings arrive fresh.
	JIT
	// Greedy dispatches chains as soon as the plan window allows and
	// captures readings when the freshness window opens, holding them until
	// the boundary — more chains outstanding (equation 11) and staler
	// readings, in exchange for the simplest possible timing.
	Greedy
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OnDemand:
		return "on-demand"
	case JIT:
		return "jit"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k names a strategy.
func (k Kind) Valid() bool { return k >= OnDemand && k <= Greedy }

// Strategy selects how a subscription prefetches: the kind plus Greedy's
// lookahead. The zero value is OnDemand, today's behavior.
type Strategy struct {
	Kind Kind
	// Lookahead is how many periods ahead Greedy keeps chains dispatched
	// (the k of Greedy(k)). Zero selects the smallest lookahead that still
	// stages every period by its equation-10 forward deadline,
	// ceil((Tsleep+2*Tfresh)/Tperiod)+1. A positive lookahead below that
	// is legal but can never stage a period on time — the regime the
	// paper's Section 5 analysis warns about — so every result stays in
	// on-demand fallback with Warmup set for the subscription's lifetime.
	// Meaningful only for Greedy.
	Lookahead int
}

// Prefetching reports whether the strategy plans ahead at all.
func (s Strategy) Prefetching() bool { return s.Kind != OnDemand }

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s.Kind == Greedy && s.Lookahead > 0 {
		return fmt.Sprintf("greedy(%d)", s.Lookahead)
	}
	return s.Kind.String()
}

// Validate reports strategy errors.
func (s Strategy) Validate() error {
	if !s.Kind.Valid() {
		return fmt.Errorf("prefetch: unknown strategy kind %d", int(s.Kind))
	}
	if s.Lookahead < 0 {
		return fmt.Errorf("prefetch: lookahead %d must be non-negative", s.Lookahead)
	}
	if s.Lookahead > 0 && s.Kind != Greedy {
		return fmt.Errorf("prefetch: lookahead is meaningful only for the greedy strategy")
	}
	return nil
}
