// Package wire is the NDJSON frame protocol spoken between
// mobiquery-serve and its clients (cmd/mobiquery-loadgen, tests, curl).
//
// Every message is one compact JSON object on its own line. A subscribe
// call carries one SubscribeRequest as its request body and streams Frame
// lines back: exactly one "ack" frame first, then one "result" frame per
// query period, then one "end" frame carrying the subscription's final
// delivery ledger when the stream closes cleanly. Waypoint updates are
// client-streamed the other way: a request body of Waypoint lines, each
// applied as it arrives.
//
// The frame schema is the session API rendered losslessly: durations are
// int64 nanoseconds, floats are float64 (encoding/json round-trips both
// exactly), so a Result decoded from the wire reconstructs the original
// mobiquery.QueryResult byte for byte — the loopback tests pin this.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"mobiquery"
	"mobiquery/internal/obs"
)

// FormatID renders a trace or span id as the wire's fixed-width lowercase
// hex — 64-bit ids travel as strings because JSON numbers lose integer
// precision past 2^53. FormatID(0) is "" (the untraced value omits).
func FormatID(v uint64) string {
	if v == 0 {
		return ""
	}
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = "0123456789abcdef"[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ParseID is the inverse of FormatID; "" parses as 0 (untraced).
func ParseID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: bad trace/span id %q", s)
	}
	return v, nil
}

// Spec is QuerySpec on the wire. The zero values of the optional fields
// select the same defaults the session API does (no deadline slack, no
// freshness window, unbounded lifetime, Avg aggregation, on-demand
// sampling, no corridor).
type Spec struct {
	RadiusM     float64 `json:"radius_m"`
	PeriodNS    int64   `json:"period_ns"`
	DeadlineNS  int64   `json:"deadline_ns,omitempty"`
	FreshnessNS int64   `json:"freshness_ns,omitempty"`
	LifetimeNS  int64   `json:"lifetime_ns,omitempty"`
	// Aggregate is one of "count", "sum", "min", "max", "avg"; empty
	// selects avg.
	Aggregate string `json:"aggregate,omitempty"`
	// Strategy is one of "ondemand" (default when empty), "jit", or
	// "greedy"; Lookahead is greedy's chains-ahead window (0 = minimal).
	Strategy  string `json:"strategy,omitempty"`
	Lookahead int    `json:"lookahead,omitempty"`
	// CorridorLookahead enables spatial corridor prefetching that many
	// period boundaries ahead (requires a prefetching Strategy);
	// ErrBaseM/ErrGrowthMPS are the corridor's location-error model.
	CorridorLookahead int     `json:"corridor_lookahead,omitempty"`
	ErrBaseM          float64 `json:"err_base_m,omitempty"`
	ErrGrowthMPS      float64 `json:"err_growth_mps,omitempty"`
	// TraceID is an optional client-minted trace context, 16 lowercase hex
	// digits. When set, every result frame of the subscription echoes the
	// period's server-side lifecycle span under that trace, letting the
	// client join its own receive timestamps onto the server's segment
	// chain. Empty leaves the subscription untraced.
	TraceID string `json:"trace_id,omitempty"`
}

// aggNames maps the wire aggregation names; the zero AggKind means "use
// the session default" (Avg), which "" selects.
var aggNames = map[string]mobiquery.AggKind{
	"":      0,
	"count": mobiquery.Count,
	"sum":   mobiquery.Sum,
	"min":   mobiquery.Min,
	"max":   mobiquery.Max,
	"avg":   mobiquery.Avg,
}

// QuerySpec converts the wire spec to the session form. Unknown
// aggregate/strategy names are errors; everything else is left to
// QuerySpec.Validate at Subscribe time.
func (s Spec) QuerySpec() (mobiquery.QuerySpec, error) {
	agg, ok := aggNames[s.Aggregate]
	if !ok {
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: unknown aggregate %q", s.Aggregate)
	}
	q := mobiquery.QuerySpec{
		Radius:    s.RadiusM,
		Period:    time.Duration(s.PeriodNS),
		Deadline:  time.Duration(s.DeadlineNS),
		Freshness: time.Duration(s.FreshnessNS),
		Lifetime:  time.Duration(s.LifetimeNS),
		Aggregate: agg,
	}
	switch s.Strategy {
	case "", "ondemand":
		q.Strategy = mobiquery.OnDemandStrategy()
	case "jit":
		q.Strategy = mobiquery.JITStrategy()
	case "greedy":
		q.Strategy = mobiquery.GreedyStrategy(s.Lookahead)
	default:
		return mobiquery.QuerySpec{}, fmt.Errorf("wire: unknown strategy %q", s.Strategy)
	}
	if s.CorridorLookahead > 0 {
		q.Corridor = mobiquery.CorridorSpec{
			Lookahead:  s.CorridorLookahead,
			ErrorModel: mobiquery.ErrorModel{Base: s.ErrBaseM, Growth: s.ErrGrowthMPS},
		}
	}
	tid, err := ParseID(s.TraceID)
	if err != nil {
		return mobiquery.QuerySpec{}, err
	}
	q.Trace = mobiquery.TraceID(tid)
	return q, nil
}

// Motion is a MotionSource on the wire.
type Motion struct {
	// Kind is "static", "linear", or "course". Static pins the user at
	// (XM, YM); linear adds a (VXMPS, VYMPS) velocity; course follows a
	// seeded random-direction ground-truth course with a noisy GPS
	// predictor supplying the motion profiles (the Section 6.3 setting).
	Kind  string  `json:"kind"`
	XM    float64 `json:"x_m,omitempty"`
	YM    float64 `json:"y_m,omitempty"`
	VXMPS float64 `json:"vx_mps,omitempty"`
	VYMPS float64 `json:"vy_mps,omitempty"`
	// Course parameters (kind "course").
	Seed             int64   `json:"seed,omitempty"`
	RegionSideM      float64 `json:"region_side_m,omitempty"`
	SpeedMinMPS      float64 `json:"speed_min_mps,omitempty"`
	SpeedMaxMPS      float64 `json:"speed_max_mps,omitempty"`
	ChangeIntervalNS int64   `json:"change_interval_ns,omitempty"`
	DurationNS       int64   `json:"duration_ns,omitempty"`
	// GPS predictor parameters (kind "course").
	GPSSeed       int64   `json:"gps_seed,omitempty"`
	GPSSamplingNS int64   `json:"gps_sampling_ns,omitempty"`
	GPSErrM       float64 `json:"gps_err_m,omitempty"`
	GPSThresholdM float64 `json:"gps_threshold_m,omitempty"`
}

// Source builds the session MotionSource the wire motion describes.
func (m Motion) Source() (mobiquery.MotionSource, error) {
	switch m.Kind {
	case "static":
		return mobiquery.StaticPosition(mobiquery.Pt(m.XM, m.YM)), nil
	case "linear":
		return mobiquery.LinearMotion(mobiquery.Pt(m.XM, m.YM), m.VXMPS, m.VYMPS), nil
	case "course":
		return mobiquery.GPSPredictedMotion(
			mobiquery.CourseConfig{
				Seed:           m.Seed,
				RegionSide:     m.RegionSideM,
				Start:          mobiquery.Pt(m.XM, m.YM),
				SpeedMin:       m.SpeedMinMPS,
				SpeedMax:       m.SpeedMaxMPS,
				ChangeInterval: time.Duration(m.ChangeIntervalNS),
				Duration:       time.Duration(m.DurationNS),
			},
			mobiquery.GPSConfig{
				Seed:      m.GPSSeed,
				Sampling:  time.Duration(m.GPSSamplingNS),
				Error:     m.GPSErrM,
				Threshold: m.GPSThresholdM,
			})
	default:
		return nil, fmt.Errorf("wire: unknown motion kind %q", m.Kind)
	}
}

// SubscribeRequest is the body of POST /v1/subscribe.
type SubscribeRequest struct {
	Spec   Spec   `json:"spec"`
	Motion Motion `json:"motion"`
}

// Frame types on a subscribe stream.
const (
	FrameAck    = "ack"
	FrameResult = "result"
	FrameEnd    = "end"
	FrameError  = "error"
)

// Frame is one line of a subscribe stream. Type discriminates: an ack
// frame carries ID and NowNS (the service virtual time the subscription's
// periods count from), a result frame carries Result, an end frame
// carries the final Stats, an error frame carries Error.
type Frame struct {
	Type   string    `json:"type"`
	ID     uint32    `json:"id,omitempty"`
	NowNS  int64     `json:"now_ns,omitempty"`
	Result *Result   `json:"result,omitempty"`
	Stats  *SubStats `json:"stats,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// Float is a float64 on the wire that admits non-finite values: an
// aggregate over zero fresh contributors (Avg, Min, Max) is NaN, which a
// JSON number cannot carry. A finite Float encodes exactly as a float64
// does; a non-finite one encodes as null, and null decodes back to NaN
// (the sign of an infinity is not preserved).
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Result is QueryResult on the wire, field for field.
type Result struct {
	K               int     `json:"k"`
	DeadlineNS      int64   `json:"deadline_ns"`
	Received        bool    `json:"received"`
	OnTime          bool    `json:"on_time"`
	Value           Float   `json:"value"`
	Contributors    int     `json:"contributors"`
	AreaNodes       int     `json:"area_nodes"`
	Fidelity        float64 `json:"fidelity"`
	Success         bool    `json:"success"`
	EvaluatedAtNS   int64   `json:"evaluated_at_ns"`
	LatenessNS      int64   `json:"lateness_ns"`
	StaleNodes      int     `json:"stale_nodes"`
	MaxStalenessNS  int64   `json:"max_staleness_ns"`
	Warmup          bool    `json:"warmup,omitempty"`
	PrefetchedNodes int     `json:"prefetched_nodes,omitempty"`
	CorridorHit     bool    `json:"corridor_hit,omitempty"`
	// Trace is the period's echoed server-side span, present only on
	// traced subscriptions (Spec.TraceID set). The server stamps WireNS
	// the instant the frame is handed to the wire.
	Trace *TraceSpan `json:"trace,omitempty"`
}

// FromResult renders a session result for the wire.
func FromResult(r mobiquery.QueryResult) Result {
	w := Result{
		K:               r.K,
		DeadlineNS:      int64(r.Deadline),
		Received:        r.Received,
		OnTime:          r.OnTime,
		Value:           Float(r.Value),
		Contributors:    r.Contributors,
		AreaNodes:       r.AreaNodes,
		Fidelity:        r.Fidelity,
		Success:         r.Success,
		EvaluatedAtNS:   int64(r.EvaluatedAt),
		LatenessNS:      int64(r.Lateness),
		StaleNodes:      r.StaleNodes,
		MaxStalenessNS:  int64(r.MaxStaleness),
		Warmup:          r.Warmup,
		PrefetchedNodes: r.PrefetchedNodes,
		CorridorHit:     r.CorridorHit,
	}
	if r.Trace != nil {
		ts := FromPeriodSpan(*r.Trace)
		w.Trace = &ts
	}
	return w
}

// QueryResult reconstructs the session result the frame was rendered
// from. FromResult and QueryResult are exact inverses.
func (r Result) QueryResult() mobiquery.QueryResult {
	q := mobiquery.QueryResult{
		K:               r.K,
		Deadline:        time.Duration(r.DeadlineNS),
		Received:        r.Received,
		OnTime:          r.OnTime,
		Value:           float64(r.Value),
		Contributors:    r.Contributors,
		AreaNodes:       r.AreaNodes,
		Fidelity:        r.Fidelity,
		Success:         r.Success,
		EvaluatedAt:     time.Duration(r.EvaluatedAtNS),
		Lateness:        time.Duration(r.LatenessNS),
		StaleNodes:      r.StaleNodes,
		MaxStaleness:    time.Duration(r.MaxStalenessNS),
		Warmup:          r.Warmup,
		PrefetchedNodes: r.PrefetchedNodes,
		CorridorHit:     r.CorridorHit,
	}
	if r.Trace != nil {
		// A frame produced by FromResult always parses; a hand-built frame
		// with an invalid class or outcome reconstructs with those fields
		// zero rather than failing the whole result.
		sp, _ := r.Trace.PeriodSpan()
		q.Trace = &sp
	}
	return q
}

// SubStats is SubscriptionStats on the wire (an end frame, and the
// per-subscription stats endpoint).
type SubStats struct {
	Delivered  int `json:"delivered"`
	Dropped    int `json:"dropped"`
	Late       int `json:"late"`
	NextPeriod int `json:"next_period"`
}

// FromSubStats renders a subscription's ledger for the wire.
func FromSubStats(st mobiquery.SubscriptionStats) SubStats {
	return SubStats{
		Delivered:  st.Delivered,
		Dropped:    st.Dropped,
		Late:       st.Late,
		NextPeriod: st.NextPeriod,
	}
}

// Waypoint is one client-streamed ground-truth position update (a line
// of the waypoints request body).
type Waypoint struct {
	XM float64 `json:"x_m"`
	YM float64 `json:"y_m"`
}

// WaypointReply closes a waypoint stream: how many updates were applied.
type WaypointReply struct {
	Applied int `json:"applied"`
}

// ServiceStats is mobiquery.ServiceStats on the wire (GET /v1/stats).
type ServiceStats struct {
	NowNS       int64  `json:"now_ns"`
	Nodes       int    `json:"nodes"`
	Subscribers int    `json:"subscribers"`
	Draining    bool   `json:"draining,omitempty"`
	Opened      uint64 `json:"opened"`
	Closed      uint64 `json:"closed"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Late        uint64 `json:"late"`

	// Aggregate tile pyramid: instantiated boundary classes, periods
	// answered from tiles, and epoch ingests.
	PyramidClasses int    `json:"pyramid_classes"`
	PyramidServes  uint64 `json:"pyramid_serves"`
	PyramidBuilds  uint64 `json:"pyramid_builds"`

	// Scheduler shape: stripe count, total scheduled periods, per-stripe
	// occupancy, and the width of the last PopDue merge.
	SchedStripes    int   `json:"sched_stripes"`
	SchedLen        int   `json:"sched_len"`
	SchedStripeLens []int `json:"sched_stripe_lens,omitempty"`
	SchedMergeDepth int   `json:"sched_merge_depth"`
}

// FromServiceStats renders the service ledger for the wire.
func FromServiceStats(st mobiquery.ServiceStats) ServiceStats {
	return ServiceStats{
		NowNS:       int64(st.Now),
		Nodes:       st.Nodes,
		Subscribers: st.Subscribers,
		Draining:    st.Draining,
		Opened:      st.Opened,
		Closed:      st.Closed,
		Delivered:   st.Delivered,
		Dropped:     st.Dropped,
		Late:        st.Late,

		PyramidClasses: st.PyramidClasses,
		PyramidServes:  st.PyramidServes,
		PyramidBuilds:  st.PyramidBuilds,

		SchedStripes:    st.SchedStripes,
		SchedLen:        st.SchedLen,
		SchedStripeLens: st.SchedStripeLens,
		SchedMergeDepth: st.SchedMergeDepth,
	}
}

// PrefetchStats is the planner/corridor ledger on the wire, attached to
// the per-subscription stats endpoint for prefetching subscriptions.
type PrefetchStats struct {
	Strategy            string `json:"strategy"`
	Replans             int    `json:"replans"`
	Served              int64  `json:"served"`
	WarmupUntilNS       int64  `json:"warmup_until_ns"`
	CorridorHits        int64  `json:"corridor_hits,omitempty"`
	CorridorMisses      int64  `json:"corridor_misses,omitempty"`
	CorridorMispredicts int64  `json:"corridor_mispredicts,omitempty"`
	CorridorStaged      int64  `json:"corridor_staged,omitempty"`
}

// FromPrefetchStats renders the planner ledger for the wire.
func FromPrefetchStats(st mobiquery.PrefetchStats) PrefetchStats {
	return PrefetchStats{
		Strategy:            st.Strategy.String(),
		Replans:             st.Replans,
		Served:              st.Served,
		WarmupUntilNS:       int64(st.WarmupUntil),
		CorridorHits:        st.CorridorHits,
		CorridorMisses:      st.CorridorMisses,
		CorridorMispredicts: st.CorridorMispredicts,
		CorridorStaged:      st.CorridorStaged,
	}
}

// TraceSpan is one traced period lifecycle on the wire: a line of the
// NDJSON bodies of GET /v1/subscriptions/{id}/trace and GET /v1/trace,
// and the echo on a traced result frame. Timestamps are wall-clock
// nanoseconds; zero means the stage was never reached. TraceID and
// SpanID are fixed-width lowercase hex (FormatID), empty when the
// subscription carries no trace context.
type TraceSpan struct {
	TraceID     string `json:"trace_id,omitempty"`
	SpanID      string `json:"span_id,omitempty"`
	K           int    `json:"k"`
	DueNS       int64  `json:"due_ns"`
	ArmedNS     int64  `json:"armed_ns"`
	PoppedNS    int64  `json:"popped_ns"`
	EvalStartNS int64  `json:"eval_start_ns"`
	EvalEndNS   int64  `json:"eval_end_ns"`
	FlushNS     int64  `json:"flush_ns"`
	DeliveredNS int64  `json:"delivered_ns"`
	WireNS      int64  `json:"wire_ns,omitempty"`
	Class       string `json:"class"`
	Outcome     string `json:"outcome"`
	Late        bool   `json:"late,omitempty"`
}

// FromPeriodSpan renders a traced period for the wire.
func FromPeriodSpan(sp mobiquery.PeriodSpan) TraceSpan {
	return TraceSpan{
		TraceID:     FormatID(uint64(sp.Trace)),
		SpanID:      FormatID(uint64(sp.Span)),
		K:           sp.K,
		DueNS:       int64(sp.Due),
		ArmedNS:     sp.ArmedNS,
		PoppedNS:    sp.PoppedNS,
		EvalStartNS: sp.EvalStartNS,
		EvalEndNS:   sp.EvalEndNS,
		FlushNS:     sp.FlushNS,
		DeliveredNS: sp.DeliveredNS,
		WireNS:      sp.WireNS,
		Class:       sp.Class.String(),
		Outcome:     sp.Outcome.String(),
		Late:        sp.Late,
	}
}

// PeriodSpan reconstructs the session span the wire form was rendered
// from; FromPeriodSpan and PeriodSpan are exact inverses. The numeric
// fields are filled even when an id, class, or outcome fails to parse —
// the error then reports the first offender, with that field left zero.
func (t TraceSpan) PeriodSpan() (mobiquery.PeriodSpan, error) {
	sp := mobiquery.PeriodSpan{
		K:           t.K,
		Due:         time.Duration(t.DueNS),
		ArmedNS:     t.ArmedNS,
		PoppedNS:    t.PoppedNS,
		EvalStartNS: t.EvalStartNS,
		EvalEndNS:   t.EvalEndNS,
		FlushNS:     t.FlushNS,
		DeliveredNS: t.DeliveredNS,
		WireNS:      t.WireNS,
		Late:        t.Late,
	}
	tid, err := ParseID(t.TraceID)
	if err != nil {
		return sp, err
	}
	sid, err := ParseID(t.SpanID)
	if err != nil {
		return sp, err
	}
	sp.Trace, sp.Span = mobiquery.TraceID(tid), mobiquery.SpanID(sid)
	class, ok := obs.ParseClass(t.Class)
	if !ok {
		return sp, fmt.Errorf("wire: unknown serve class %q", t.Class)
	}
	outcome, ok := obs.ParseOutcome(t.Outcome)
	if !ok {
		return sp, fmt.Errorf("wire: unknown span outcome %q", t.Outcome)
	}
	sp.Class, sp.Outcome = class, outcome
	return sp, nil
}

// ClientSpan is one line of the loadgen's TRACE_pr.ndjson: the server's
// echoed period span joined with the client's own wall-clock stamps for
// the subscription — when the subscribe request was sent, when the ack
// arrived, and when this result frame was read off the wire. Server and
// client clocks are the same host under the smoke harness; across real
// hosts the cross-tier segment (WireNS → RecvNS) absorbs the skew.
type ClientSpan struct {
	Sub    uint32    `json:"sub"`
	SendNS int64     `json:"send_ns"`
	AckNS  int64     `json:"ack_ns"`
	RecvNS int64     `json:"recv_ns"`
	Server TraceSpan `json:"server"`
}

// SubscriptionInfo is the body of GET /v1/subscriptions/{id}/stats.
type SubscriptionInfo struct {
	ID       uint32         `json:"id"`
	Stats    SubStats       `json:"stats"`
	Prefetch *PrefetchStats `json:"prefetch,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	OK          bool  `json:"ok"`
	NowNS       int64 `json:"now_ns"`
	Subscribers int   `json:"subscribers"`
}

// AdvanceRequest is the body of POST /v1/advance (manual-clock servers
// only): move the service's virtual clock forward by DNS nanoseconds.
type AdvanceRequest struct {
	DNS int64 `json:"d_ns"`
}

// Encoder writes NDJSON: one compact JSON value per line. json.Encoder
// already emits exactly that for flat objects; the type exists so both
// ends share one definition of the framing.
type Encoder struct{ enc *json.Encoder }

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{enc: json.NewEncoder(w)} }

// Encode writes one frame line.
func (e *Encoder) Encode(v any) error { return e.enc.Encode(v) }

// Decoder reads a stream of NDJSON values.
type Decoder struct{ dec *json.Decoder }

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{dec: json.NewDecoder(r)} }

// Decode reads the next value into v; io.EOF ends a clean stream.
func (d *Decoder) Decode(v any) error { return d.dec.Decode(v) }
