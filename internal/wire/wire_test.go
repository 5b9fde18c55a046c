package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/obs"
)

// fullResult exercises every QueryResult field with values that stress
// JSON round-tripping: negative durations, non-representable-in-float32
// floats, and all flags set.
func fullResult() mobiquery.QueryResult {
	return mobiquery.QueryResult{
		K:               17,
		Deadline:        34 * time.Second,
		Received:        true,
		OnTime:          false,
		Value:           20.000000000000004,
		Contributors:    41,
		AreaNodes:       44,
		Fidelity:        41.0 / 44.0,
		Success:         false,
		EvaluatedAt:     34*time.Second + 123456789*time.Nanosecond,
		Lateness:        123456789 * time.Nanosecond,
		StaleNodes:      3,
		MaxStaleness:    999999999 * time.Nanosecond,
		Warmup:          true,
		PrefetchedNodes: 38,
		CorridorHit:     true,
	}
}

func TestResultRoundTripExact(t *testing.T) {
	orig := fullResult()
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(Frame{Type: FrameResult, Result: ptr(FromResult(orig))}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var f Frame
	if err := NewDecoder(&buf).Decode(&f); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Type != FrameResult || f.Result == nil {
		t.Fatalf("frame came back as %+v", f)
	}
	if got := f.Result.QueryResult(); got != orig {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, orig)
	}
}

func TestResultRoundTripZeroAndExtremes(t *testing.T) {
	cases := []mobiquery.QueryResult{
		{},
		{K: 1, Deadline: time.Nanosecond, Value: math.MaxFloat64, Fidelity: 1},
		{K: 2, Value: math.SmallestNonzeroFloat64, Lateness: -time.Second},
	}
	for i, orig := range cases {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(FromResult(orig)); err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		var r Result
		if err := NewDecoder(&buf).Decode(&r); err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if got := r.QueryResult(); got != orig {
			t.Errorf("case %d: got %+v want %+v", i, got, orig)
		}
	}
}

// TestResultNonFiniteValueRoundTrip pins the empty-aggregate encoding: a
// NaN or infinite value travels as null and decodes as NaN, with every
// other field intact.
func TestResultNonFiniteValueRoundTrip(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		orig := fullResult()
		orig.Value = v
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(Frame{Type: FrameResult, Result: ptr(FromResult(orig))}); err != nil {
			t.Fatalf("value %v: encode: %v", v, err)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"value":null,`)) {
			t.Errorf("value %v encoded as %s, want a null value", v, buf.Bytes())
		}
		var f Frame
		if err := NewDecoder(&buf).Decode(&f); err != nil {
			t.Fatalf("value %v: decode: %v", v, err)
		}
		got := f.Result.QueryResult()
		if !math.IsNaN(got.Value) {
			t.Errorf("value %v decoded as %v, want NaN", v, got.Value)
		}
		got.Value, orig.Value = 0, 0
		if got != orig {
			t.Errorf("value %v: round trip changed the result:\n got %+v\nwant %+v", v, got, orig)
		}
	}
}

func TestStreamOfFramesDecodesInOrder(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	frames := []Frame{
		{Type: FrameAck, ID: 7, NowNS: int64(3 * time.Second)},
		{Type: FrameResult, Result: ptr(FromResult(fullResult()))},
		{Type: FrameEnd, Stats: &SubStats{Delivered: 1, NextPeriod: 2}},
	}
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	// NDJSON: one line per frame.
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != len(frames) {
		t.Errorf("stream has %d lines, want %d", got, len(frames))
	}
	dec := NewDecoder(&buf)
	for i, want := range frames {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, want) {
			t.Errorf("frame %d: got %+v want %+v", i, f, want)
		}
	}
	var f Frame
	if err := dec.Decode(&f); err != io.EOF {
		t.Errorf("after the last frame: err=%v, want io.EOF", err)
	}
}

func TestSpecConversion(t *testing.T) {
	s := Spec{
		RadiusM:           150,
		PeriodNS:          int64(2 * time.Second),
		DeadlineNS:        int64(200 * time.Millisecond),
		FreshnessNS:       int64(time.Second),
		LifetimeNS:        int64(time.Minute),
		Aggregate:         "max",
		Strategy:          "jit",
		CorridorLookahead: 4,
		ErrBaseM:          12,
		ErrGrowthMPS:      1.5,
	}
	q, err := s.QuerySpec()
	if err != nil {
		t.Fatalf("QuerySpec: %v", err)
	}
	want := mobiquery.QuerySpec{
		Radius:    150,
		Period:    2 * time.Second,
		Deadline:  200 * time.Millisecond,
		Freshness: time.Second,
		Lifetime:  time.Minute,
		Aggregate: mobiquery.Max,
		Strategy:  mobiquery.JITStrategy(),
		Corridor: mobiquery.CorridorSpec{
			Lookahead:  4,
			ErrorModel: mobiquery.ErrorModel{Base: 12, Growth: 1.5},
		},
	}
	if q != want {
		t.Errorf("converted spec:\n got %+v\nwant %+v", q, want)
	}
	if err := q.Validate(); err != nil {
		t.Errorf("converted spec does not validate: %v", err)
	}

	// The defaults: empty strategy and aggregate are the session defaults.
	q, err = Spec{RadiusM: 100, PeriodNS: int64(time.Second)}.QuerySpec()
	if err != nil {
		t.Fatalf("minimal spec: %v", err)
	}
	if q.Strategy != mobiquery.OnDemandStrategy() || q.Aggregate != 0 {
		t.Errorf("minimal spec defaults: %+v", q)
	}

	// Greedy carries its lookahead.
	q, err = Spec{RadiusM: 100, PeriodNS: int64(time.Second), Strategy: "greedy", Lookahead: 9}.QuerySpec()
	if err != nil {
		t.Fatalf("greedy spec: %v", err)
	}
	if q.Strategy != mobiquery.GreedyStrategy(9) {
		t.Errorf("greedy lookahead lost: %+v", q.Strategy)
	}

	for _, bad := range []Spec{
		{RadiusM: 100, PeriodNS: 1, Aggregate: "median"},
		{RadiusM: 100, PeriodNS: 1, Strategy: "psychic"},
	} {
		if _, err := bad.QuerySpec(); err == nil {
			t.Errorf("spec %+v: expected a conversion error", bad)
		}
	}
}

func TestMotionConversion(t *testing.T) {
	src, err := Motion{Kind: "static", XM: 3, YM: 4}.Source()
	if err != nil {
		t.Fatalf("static: %v", err)
	}
	if p := src.PositionAt(time.Hour); p != mobiquery.Pt(3, 4) {
		t.Errorf("static position drifted to %v", p)
	}

	src, err = Motion{Kind: "linear", XM: 10, YM: 20, VXMPS: 2, VYMPS: -1}.Source()
	if err != nil {
		t.Fatalf("linear: %v", err)
	}
	if p := src.PositionAt(3 * time.Second); p != mobiquery.Pt(16, 17) {
		t.Errorf("linear position at 3s: %v, want (16,17)", p)
	}

	course := Motion{
		Kind: "course", Seed: 5, XM: 200, YM: 200,
		RegionSideM: 450, SpeedMinMPS: 1, SpeedMaxMPS: 3,
		ChangeIntervalNS: int64(10 * time.Second), DurationNS: int64(time.Minute),
		GPSSeed: 6, GPSSamplingNS: int64(time.Second), GPSErrM: 5,
	}
	src, err = course.Source()
	if err != nil {
		t.Fatalf("course: %v", err)
	}
	// The course is deterministic in its seeds: two builds agree.
	src2, err := course.Source()
	if err != nil {
		t.Fatalf("course again: %v", err)
	}
	for _, at := range []time.Duration{0, 7 * time.Second, 42 * time.Second} {
		if p, p2 := src.PositionAt(at), src2.PositionAt(at); p != p2 {
			t.Errorf("course not deterministic at %v: %v vs %v", at, p, p2)
		}
	}
	if _, ok := src.(mobiquery.ProfileSource); !ok {
		t.Error("course source should carry predicted profiles")
	}

	if _, err := (Motion{Kind: "teleport"}).Source(); err == nil {
		t.Error("unknown motion kind should be an error")
	}
	if _, err := (Motion{Kind: "course", RegionSideM: -1}).Source(); err == nil {
		t.Error("invalid course should surface the mobility validation error")
	}
}

func TestLedgerConversions(t *testing.T) {
	ss := mobiquery.ServiceStats{
		Now: 5 * time.Second, Nodes: 200, Subscribers: 3, Draining: true,
		Opened: 9, Closed: 6, Delivered: 100, Dropped: 2, Late: 1,
		SchedStripes: 4, SchedLen: 3, SchedStripeLens: []int{2, 0, 1, 0},
		SchedMergeDepth: 2,
	}
	w := FromServiceStats(ss)
	if w.NowNS != int64(5*time.Second) || w.Nodes != 200 || w.Subscribers != 3 ||
		!w.Draining || w.Opened != 9 || w.Closed != 6 || w.Delivered != 100 ||
		w.Dropped != 2 || w.Late != 1 {
		t.Errorf("service stats mapped to %+v", w)
	}
	if w.SchedStripes != 4 || w.SchedLen != 3 || w.SchedMergeDepth != 2 ||
		!slices.Equal(w.SchedStripeLens, []int{2, 0, 1, 0}) {
		t.Errorf("scheduler stats mapped to %+v", w)
	}
	st := mobiquery.SubscriptionStats{Delivered: 4, Dropped: 1, Late: 2, NextPeriod: 6}
	if got := FromSubStats(st); got != (SubStats{Delivered: 4, Dropped: 1, Late: 2, NextPeriod: 6}) {
		t.Errorf("sub stats mapped to %+v", got)
	}
}

func ptr[T any](v T) *T { return &v }

// fullSpan exercises every PeriodSpan field.
func fullSpan() mobiquery.PeriodSpan {
	return mobiquery.PeriodSpan{
		Trace:       mobiquery.TraceID(0xDEADBEEFCAFE0123),
		Span:        mobiquery.MintSpanID(mobiquery.TraceID(0xDEADBEEFCAFE0123), 5),
		K:           5,
		Due:         10 * time.Second,
		ArmedNS:     1_000,
		PoppedNS:    2_000,
		EvalStartNS: 3_000,
		EvalEndNS:   4_000,
		FlushNS:     4_500,
		DeliveredNS: 5_000,
		WireNS:      6_000,
		Class:       obs.ClassPyramid,
		Outcome:     obs.OutcomeDelivered,
		Late:        true,
	}
}

func TestFormatParseID(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xFF, 1 << 53, math.MaxUint64} {
		s := FormatID(v)
		if v == 0 {
			if s != "" {
				t.Fatalf("FormatID(0) = %q, want empty (untraced)", s)
			}
		} else if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex chars", v, s)
		}
		got, err := ParseID(s)
		if err != nil || got != v {
			t.Fatalf("ParseID(FormatID(%d)) = %d, %v", v, got, err)
		}
	}
	for _, bad := range []string{"xyz", "-1", "10000000000000000ff"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

func TestTraceSpanRoundTripExact(t *testing.T) {
	orig := fullSpan()
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(FromPeriodSpan(orig)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw := bytes.Clone(buf.Bytes())
	var ts TraceSpan
	if err := NewDecoder(&buf).Decode(&ts); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := ts.PeriodSpan()
	if err != nil {
		t.Fatalf("PeriodSpan: %v", err)
	}
	if got != orig {
		t.Errorf("round trip changed the span:\n got %+v\nwant %+v", got, orig)
	}
	// Ids ride as 16-char hex strings: uint64s above 2^53 do not survive
	// JSON numbers, so the wire must never carry them numerically.
	if !bytes.Contains(raw, []byte(`"trace_id":"deadbeefcafe0123"`)) {
		t.Errorf("trace id not hex on the wire: %s", raw)
	}

	if _, err := (TraceSpan{TraceID: "zz"}).PeriodSpan(); err == nil {
		t.Error("bad trace id accepted")
	}
	if _, err := (TraceSpan{Class: "psychic"}).PeriodSpan(); err == nil {
		t.Error("bad class accepted")
	}
}

// TestTracedResultRoundTrip pins the traced result frame: the span rides
// the frame, and an untraced result's encoding is byte-identical to the
// pre-tracing wire format (no "trace" key at all).
func TestTracedResultRoundTrip(t *testing.T) {
	orig := fullResult()
	span := fullSpan()
	orig.Trace = &span
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(FromResult(orig)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var r Result
	if err := NewDecoder(&buf).Decode(&r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := r.QueryResult()
	if got.Trace == nil || *got.Trace != span {
		t.Errorf("span changed on the wire:\n got %+v\nwant %+v", got.Trace, span)
	}
	got.Trace, orig.Trace = nil, nil
	if got != orig {
		t.Errorf("result fields changed:\n got %+v\nwant %+v", got, orig)
	}

	var untraced bytes.Buffer
	if err := NewEncoder(&untraced).Encode(FromResult(fullResult())); err != nil {
		t.Fatalf("encode untraced: %v", err)
	}
	if bytes.Contains(untraced.Bytes(), []byte("trace")) {
		t.Errorf("untraced result leaks a trace key: %s", untraced.Bytes())
	}
}

func TestSpecTraceIDConversion(t *testing.T) {
	s := Spec{RadiusM: 100, PeriodNS: int64(time.Second), TraceID: "00000000000000ff"}
	q, err := s.QuerySpec()
	if err != nil {
		t.Fatalf("QuerySpec: %v", err)
	}
	if q.Trace != 0xFF {
		t.Errorf("trace id converted to %#x, want 0xff", uint64(q.Trace))
	}
	s.TraceID = ""
	if q, err = s.QuerySpec(); err != nil || q.Trace != 0 {
		t.Errorf("absent trace id: %v trace %#x, want untraced", err, uint64(q.Trace))
	}
	s.TraceID = "not-hex"
	if _, err := s.QuerySpec(); err == nil {
		t.Error("malformed trace id accepted")
	}
}
