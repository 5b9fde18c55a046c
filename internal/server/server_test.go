package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// testConfig is the shared small field: deterministic in its seed.
func testConfig(sc mobiquery.ServiceConfig) mobiquery.NetworkConfig {
	nc := mobiquery.DefaultNetworkConfig()
	nc.Seed = 3
	nc.Nodes = 300
	nc.Service = sc
	return nc
}

func testSpec() wire.Spec {
	return wire.Spec{
		RadiusM:     150,
		PeriodNS:    int64(2 * time.Second),
		DeadlineNS:  int64(200 * time.Millisecond),
		FreshnessNS: int64(time.Second),
	}
}

// harness is a served service under a manual clock.
type harness struct {
	svc *mobiquery.Service
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, sc mobiquery.ServiceConfig) *harness {
	t.Helper()
	svc, err := mobiquery.Open(context.Background(), testConfig(sc), mobiquery.WithResultBuffer(64))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	srv := New(svc, Options{AllowAdvance: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &harness{svc: svc, srv: srv, ts: ts}
}

// subscribe opens a subscribe stream and decodes the ack.
func (h *harness) subscribe(t *testing.T, ctx context.Context, req wire.SubscribeRequest) (ack wire.Frame, dec *wire.Decoder, closeBody func()) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.ts.URL+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := h.ts.Client().Do(hr)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, msg)
	}
	dec = wire.NewDecoder(resp.Body)
	if err := dec.Decode(&ack); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if ack.Type != wire.FrameAck || ack.ID == 0 {
		t.Fatalf("first frame is %+v, want an ack with an id", ack)
	}
	return ack, dec, func() { resp.Body.Close() }
}

// advance moves the served virtual clock.
func (h *harness) advance(t *testing.T, d time.Duration) {
	t.Helper()
	body, _ := json.Marshal(wire.AdvanceRequest{DNS: int64(d)})
	resp, err := h.ts.Client().Post(h.ts.URL+"/v1/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("advance: status %d: %s", resp.StatusCode, msg)
	}
}

func TestHealthAndStats(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	resp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hl wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&hl); err != nil {
		t.Fatalf("decode health: %v", err)
	}
	resp.Body.Close()
	if !hl.OK || hl.Subscribers != 0 {
		t.Errorf("health %+v", hl)
	}

	resp, err = http.Get(h.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st wire.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Nodes != 300 || st.Opened != 0 || st.Draining {
		t.Errorf("stats %+v", st)
	}
	if st.SchedStripes < 1 || st.SchedLen != 0 {
		t.Errorf("empty service scheduler stats %+v", st)
	}

	// One live subscription means one scheduled period, and the striped
	// scheduler's shape survives the wire round trip.
	_, _, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	})
	defer done()
	resp, err = http.Get(h.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	st = wire.ServiceStats{}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Subscribers != 1 || st.SchedLen != 1 {
		t.Errorf("scheduler stats after subscribe %+v", st)
	}
	if sum := 0; true {
		for _, n := range st.SchedStripeLens {
			sum += n
		}
		if len(st.SchedStripeLens) != st.SchedStripes || sum != st.SchedLen {
			t.Errorf("stripe lens %v inconsistent with stripes=%d len=%d",
				st.SchedStripeLens, st.SchedStripes, st.SchedLen)
		}
	}
}

func TestSubscribeStreamsResultsAndEndFrame(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	req := wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 225, YM: 225},
	}
	req.Spec.LifetimeNS = int64(6 * time.Second) // 3 periods, then the stream ends
	_, dec, done := h.subscribe(t, context.Background(), req)
	defer done()

	for i := 0; i < 8; i++ {
		h.advance(t, time.Second)
	}
	var results []wire.Result
	var end *wire.Frame
	for end == nil {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream: %v (after %d results)", err, len(results))
		}
		switch f.Type {
		case wire.FrameResult:
			results = append(results, *f.Result)
		case wire.FrameEnd:
			end = &f
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.K != i+1 || !r.Received || r.Contributors == 0 {
			t.Errorf("result %d: %+v", i, r)
		}
	}
	if end.Stats == nil || end.Stats.Delivered != 3 || end.Stats.Dropped != 0 {
		t.Errorf("end frame stats %+v", end.Stats)
	}
	// The handler unregistered its stream.
	waitFor(t, "stream unregistered", func() bool { return h.srv.Streams() == 0 })
}

// TestEmptyDiskStreamsNullValuesAndEndFrame pins the no-fresh-contributor
// case end to end: every period over a disk with no fresh nodes has a NaN
// average, which travels as a null value, and the stream still delivers
// every result frame and its end frame.
func TestEmptyDiskStreamsNullValuesAndEndFrame(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	req := wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: -5000, YM: -5000}, // far outside the field
	}
	req.Spec.LifetimeNS = int64(6 * time.Second)
	_, dec, done := h.subscribe(t, context.Background(), req)
	defer done()

	for i := 0; i < 4; i++ {
		h.advance(t, 2*time.Second)
	}
	var results []wire.Result
	var end *wire.Frame
	for end == nil {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream: %v (after %d results)", err, len(results))
		}
		switch f.Type {
		case wire.FrameResult:
			results = append(results, *f.Result)
		case wire.FrameEnd:
			end = &f
		default:
			t.Fatalf("unexpected frame %+v", f)
		}
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.K != i+1 || r.Contributors != 0 || !math.IsNaN(float64(r.Value)) {
			t.Errorf("result %d: k %d, %d contributors, value %v; want an empty NaN period", i, r.K, r.Contributors, r.Value)
		}
	}
	if end.Stats == nil || end.Stats.Delivered != 3 || end.Stats.Dropped != 0 {
		t.Errorf("end frame stats %+v", end.Stats)
	}
}

// TestClientDisconnectTearsDownSubscription pins the teardown contract:
// when the client goes away the subscription closes (the engine query is
// freed, Subscribers drops) and no handler goroutine leaks.
func TestClientDisconnectTearsDownSubscription(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req := wire.SubscribeRequest{Spec: testSpec(), Motion: wire.Motion{Kind: "linear", XM: 225, YM: 225, VXMPS: 2}}
	_, dec, done := h.subscribe(t, ctx, req)
	defer done()
	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("first result: %+v err=%v", f, err)
	}
	if h.svc.Subscribers() != 1 || h.srv.Streams() != 1 {
		t.Fatalf("live: %d subscribers, %d streams", h.svc.Subscribers(), h.srv.Streams())
	}

	cancel() // client walks away mid-stream

	waitFor(t, "subscription closed", func() bool { return h.svc.Subscribers() == 0 })
	waitFor(t, "stream unregistered", func() bool { return h.srv.Streams() == 0 })
	h.ts.Client().CloseIdleConnections()
	waitFor(t, "goroutines returned", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
	// The service keeps working for everyone else.
	if _, _, done2 := h.subscribe(t, context.Background(), req); done2 != nil {
		done2()
	}
}

func TestWaypointClientStream(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	ack, dec, done := h.subscribe(t, context.Background(), wire.SubscribeRequest{
		Spec:   testSpec(),
		Motion: wire.Motion{Kind: "static", XM: 10, YM: 10}, // corner: few nodes
	})
	defer done()

	// Stream three waypoint updates; the last moves the user to the field
	// center, where the query circle holds many more nodes.
	var body bytes.Buffer
	enc := wire.NewEncoder(&body)
	for _, wp := range []wire.Waypoint{{XM: 50, YM: 50}, {XM: 150, YM: 150}, {XM: 225, YM: 225}} {
		enc.Encode(wp)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/subscriptions/%d/waypoints", h.ts.URL, ack.ID), "application/x-ndjson", &body)
	if err != nil {
		t.Fatalf("waypoints: %v", err)
	}
	var reply wire.WaypointReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("reply: %v", err)
	}
	resp.Body.Close()
	if reply.Applied != 3 {
		t.Fatalf("applied %d waypoints, want 3", reply.Applied)
	}

	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("result after waypoints: %+v err=%v", f, err)
	}
	// A 150 m circle at the center of the 450 m field covers far more of
	// the 300 nodes than the same circle in the corner would.
	if f.Result.AreaNodes < 50 {
		t.Errorf("result evaluated at the corner? area nodes %d", f.Result.AreaNodes)
	}

	// Per-subscription stats endpoint sees the delivery.
	resp, err = http.Get(fmt.Sprintf("%s/v1/subscriptions/%d/stats", h.ts.URL, ack.ID))
	if err != nil {
		t.Fatalf("sub stats: %v", err)
	}
	var info wire.SubscriptionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode sub stats: %v", err)
	}
	resp.Body.Close()
	if info.ID != ack.ID || info.Stats.Delivered != 1 {
		t.Errorf("sub stats %+v", info)
	}

	// Unknown and malformed ids are clean client errors.
	for path, want := range map[string]int{
		"/v1/subscriptions/999999/stats": http.StatusNotFound,
		"/v1/subscriptions/zebra/stats":  http.StatusBadRequest,
	} {
		resp, err := http.Get(h.ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestBadRequestsAreClientErrors(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	cases := []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{`{"spec":{"radius_m":100,"period_ns":1000000000,"strategy":"psychic"},"motion":{"kind":"static"}}`, http.StatusBadRequest},
		{`{"spec":{"radius_m":100,"period_ns":1000000000},"motion":{"kind":"teleport"}}`, http.StatusBadRequest},
		// Valid wire shape, invalid spec: rejected by Subscribe.
		{`{"spec":{"radius_m":-1,"period_ns":1000000000},"motion":{"kind":"static"}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := http.Post(h.ts.URL+"/v1/subscribe", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

// TestOversizedBodiesAreRejected pins the request-body cap: a subscribe or
// advance body past maxRequestBody is answered 413 without being read to
// its end, while a padded body just under the cap is still served.
func TestOversizedBodiesAreRejected(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	pad := strings.Repeat("x", maxRequestBody)
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/subscribe", `{"spec":{"radius_m":100,"period_ns":1000000000},"motion":{"kind":"static"},"pad":"` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/advance", `{"d_ns":1000000000,"pad":"` + pad + `"}`, http.StatusRequestEntityTooLarge},
		{"/v1/advance", strings.Repeat(" ", maxRequestBody-100) + `{"d_ns":1000000000}`, http.StatusOK},
	}
	for _, tc := range cases {
		resp, err := http.Post(h.ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("post %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s with a %d-byte body: status %d, want %d", tc.path, len(tc.body), resp.StatusCode, tc.want)
		}
	}
}

func TestDrainRejectsNewSubscribesKeepsStreams(t *testing.T) {
	h := newHarness(t, mobiquery.ServiceConfig{})
	req := wire.SubscribeRequest{Spec: testSpec(), Motion: wire.Motion{Kind: "static", XM: 225, YM: 225}}
	_, dec, done := h.subscribe(t, context.Background(), req)
	defer done()

	h.svc.Drain()

	body, _ := json.Marshal(req)
	resp, err := http.Post(h.ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("subscribe while draining: status %d, want 422", resp.StatusCode)
	}

	// The existing stream keeps delivering.
	h.advance(t, 2*time.Second)
	var f wire.Frame
	if err := dec.Decode(&f); err != nil || f.Type != wire.FrameResult {
		t.Fatalf("result while draining: %+v err=%v", f, err)
	}
	if st := h.svc.Stats(); !st.Draining {
		t.Error("service stats should report draining")
	}
}

func TestAdvanceDisabledWithoutOption(t *testing.T) {
	svc, err := mobiquery.Open(context.Background(), testConfig(mobiquery.ServiceConfig{}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	ts := httptest.NewServer(New(svc, Options{}))
	defer ts.Close()
	body, _ := json.Marshal(wire.AdvanceRequest{DNS: int64(time.Second)})
	resp, err := http.Post(ts.URL+"/v1/advance", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("advance should not exist on a server without AllowAdvance")
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
