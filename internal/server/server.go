// Package server is the network front-end over the mobiquery session
// API: an http.Handler exposing Open/Subscribe as streaming HTTP
// endpoints speaking the internal/wire NDJSON protocol. Over TLS,
// net/http negotiates HTTP/2 and the subscribe stream rides one h2
// server-streamed response; over plain TCP the same bytes flow as
// HTTP/1.1 chunked transfer — the protocol is identical either way.
//
// Endpoints:
//
//	GET  /healthz                        liveness + virtual clock
//	GET  /metrics                        Prometheus text exposition of the
//	                                     service registry (+ per-route HTTP
//	                                     request metrics)
//	GET  /v1/stats                       service-wide delivery ledger
//	GET  /v1/subscriptions/{id}/trace    recent period lifecycle spans,
//	                                     one NDJSON line per period
//	GET  /v1/trace                       service-wide span firehose: the
//	                                     ring-buffered recent spans of every
//	                                     subscription, one NDJSON line each,
//	                                     bounded and lossy (drop-counted in
//	                                     the X-Mobiquery-Trace-Dropped
//	                                     header, never blocking the tick
//	                                     path)
//	POST /v1/subscribe                   body: one wire.SubscribeRequest;
//	                                     response: ack, result*, end frames
//	POST /v1/subscriptions/{id}/waypoints  body: wire.Waypoint per line,
//	                                     applied as each arrives (client
//	                                     streaming); reply: applied count
//	GET  /v1/subscriptions/{id}/stats    per-subscription + prefetch ledger
//	POST /v1/advance                     manual-clock servers only: move
//	                                     the virtual clock (tests, smoke)
//
// The subscribe and advance bodies are capped at 64 KiB; a larger one is
// answered 413 Request Entity Too Large.
//
// A subscribe stream ends when the subscription does (Lifetime, service
// drain/close) — the end frame carries the final delivery ledger — or
// when the client disconnects, which tears the subscription down
// immediately: no goroutine or engine query outlives its stream.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mobiquery"
	"mobiquery/internal/wire"
)

// Options configures the handler.
type Options struct {
	// AllowAdvance enables POST /v1/advance, which drives the service's
	// virtual clock from the network. Only meaningful for a service
	// opened without WithRealTime (tests and deterministic smoke runs);
	// a real-time service should leave it off.
	AllowAdvance bool
}

// Server is the front-end handler. Create with New.
type Server struct {
	svc  *mobiquery.Service
	opts Options
	mux  *http.ServeMux

	// mu guards the id -> subscription registry of streams this server
	// opened, so the waypoint and stats endpoints can address them. An
	// entry lives exactly as long as its subscribe handler.
	mu   sync.Mutex
	subs map[uint32]*mobiquery.Subscription

	// statsMu guards the reused /v1/stats snapshot: the handler writes
	// the response while holding it because the wire view aliases the
	// snapshot's stripe-occupancy slice.
	statsMu      sync.Mutex
	statsScratch mobiquery.ServiceStats
}

// httpMaxLatency bounds the per-route request-latency histograms;
// subscribe streams (which live as long as the subscription) are not
// instrumented, so a minute of headroom is plenty for every other route.
const httpMaxLatency = int64(64 * time.Second)

// New returns a Server handling the wire protocol over svc.
func New(svc *mobiquery.Service, opts Options) *Server {
	s := &Server{
		svc:  svc,
		opts: opts,
		mux:  http.NewServeMux(),
		subs: make(map[uint32]*mobiquery.Subscription),
	}
	s.handle("GET /healthz", "healthz", s.handleHealth)
	// The scrape instruments itself too: the wrapper records after the
	// exposition renders, so each scrape shows the count as of the
	// previous one — standard self-measurement lag.
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /v1/stats", "stats", s.handleStats)
	// The subscribe stream stays uninstrumented: its "latency" is the
	// subscription lifetime, which would drown the request histograms.
	s.mux.HandleFunc("POST /v1/subscribe", s.handleSubscribe)
	s.handle("POST /v1/subscriptions/{id}/waypoints", "waypoints", s.handleWaypoints)
	s.handle("GET /v1/subscriptions/{id}/stats", "sub_stats", s.handleSubStats)
	s.handle("GET /v1/subscriptions/{id}/trace", "trace", s.handleTrace)
	s.handle("GET /v1/trace", "firehose", s.handleFirehose)
	if opts.AllowAdvance {
		s.handle("POST /v1/advance", "advance", s.handleAdvance)
	}
	return s
}

// handle registers pattern on the mux wrapped with per-route request
// metrics in the service registry. Registration is get-or-create, so a
// second Server over the same Service shares the same families.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	reg := s.svc.Metrics()
	lbl := `route="` + route + `"`
	total := reg.Counter("mobiquery_http_requests_total", lbl,
		"HTTP requests served, by route (subscribe streams excluded)")
	lat := reg.Histogram("mobiquery_http_request_seconds", lbl,
		"HTTP request wall time, by route (subscribe streams excluded)",
		httpMaxLatency, 1e-9)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		total.Inc()
		lat.Observe(time.Since(start).Nanoseconds())
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Streams reports the number of subscribe streams currently open on this
// server (distinct from the service's Subscribers, which may include
// in-process subscriptions).
func (s *Server) Streams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	writeJSON(w, http.StatusOK, wire.Health{OK: true, NowNS: int64(st.Now), Subscribers: st.Subscribers})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.svc.StatsInto(&s.statsScratch)
	writeJSON(w, http.StatusOK, wire.FromServiceStats(s.statsScratch))
}

// handleMetrics renders the service registry as Prometheus text
// exposition format 0.0.4.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Metrics().WritePrometheus(w)
}

// handleTrace streams a subscription's recent period lifecycle spans,
// oldest first, one NDJSON line each.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.lookup(w, r)
	if !ok {
		return
	}
	spans := sub.TraceSpans(nil)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := wire.NewEncoder(w)
	for i := range spans {
		if enc.Encode(wire.FromPeriodSpan(spans[i])) != nil {
			return
		}
	}
}

// handleFirehose streams the service-wide span firehose: every completed
// period span still in the ring, oldest first, one NDJSON line each. The
// response is a bounded snapshot, not a tail — ring capacity caps the
// body, and spans overwritten before this snapshot are only counted, so
// the endpoint can never apply back-pressure to the tick path. The
// lifetime published/dropped counts ride response headers (they are also
// on /metrics as mobiquery_trace_spans_{published,dropped}_total).
func (s *Server) handleFirehose(w http.ResponseWriter, r *http.Request) {
	spans, published, dropped := s.svc.FirehoseSpans(nil)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Mobiquery-Trace-Published", strconv.FormatUint(published, 10))
	w.Header().Set("X-Mobiquery-Trace-Dropped", strconv.FormatUint(dropped, 10))
	enc := wire.NewEncoder(w)
	for i := range spans {
		if enc.Encode(wire.FromPeriodSpan(spans[i])) != nil {
			return
		}
	}
}

// maxRequestBody caps the /v1/subscribe and /v1/advance request bodies.
// Each is one small JSON object — a spec and a motion, or a clock step —
// well under 1 KiB, so 64 KiB is ample while keeping a hostile body from
// growing the decoder's buffer without bound.
const maxRequestBody = 64 << 10

// decodeRequest decodes r's one-object body into v, reading at most
// maxRequestBody bytes. On failure it writes the error response — 413 for
// an oversized body, 400 for a malformed one — and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := wire.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("wire: %s request body exceeds %d bytes", what, tooBig.Limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "wire: bad "+what+" request: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// handleSubscribe opens a subscription from the request body and streams
// its results until the subscription or the client goes away.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req wire.SubscribeRequest
	if !decodeRequest(w, r, "subscribe", &req) {
		return
	}
	spec, err := req.Spec.QuerySpec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	src, err := req.Motion.Source()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The request context tears the subscription down on disconnect: the
	// Results channel then closes and the stream loop below ends.
	sub, err := s.svc.Subscribe(r.Context(), spec, src)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.mu.Lock()
	s.subs[sub.ID()] = sub
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, sub.ID())
		s.mu.Unlock()
		sub.Close()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := wire.NewEncoder(w)
	// Periods count from the service's now at Subscribe; the ack hands
	// the client that origin so it can anchor deadline arithmetic.
	ack := wire.Frame{Type: wire.FrameAck, ID: sub.ID(), NowNS: int64(s.svc.Now())}
	if enc.Encode(ack) != nil || rc.Flush() != nil {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case res, ok := <-sub.Results():
			if !ok {
				st := wire.FromSubStats(sub.Stats())
				f := wire.Frame{Type: wire.FrameEnd, ID: sub.ID(), Stats: &st}
				if enc.Encode(f) == nil {
					rc.Flush()
				}
				return
			}
			rf := wire.FromResult(res)
			if rf.Trace != nil {
				// The wire-write stamp closes the server's segment chain:
				// taken the instant the frame is handed to the wire, so
				// the client's receive stamp measures only the network and
				// its own scheduling.
				rf.Trace.WireNS = time.Now().UnixNano()
			}
			f := wire.Frame{Type: wire.FrameResult, ID: sub.ID(), Result: &rf}
			if enc.Encode(f) != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

// handleWaypoints applies a client-streamed body of ground-truth position
// updates to a subscription this server opened, each as it arrives.
func (s *Server) handleWaypoints(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.lookup(w, r)
	if !ok {
		return
	}
	dec := wire.NewDecoder(r.Body)
	applied := 0
	for {
		var wp wire.Waypoint
		if err := dec.Decode(&wp); err != nil {
			break // EOF ends the stream; garbage ends it early
		}
		if sub.UpdateWaypoint(mobiquery.Pt(wp.XM, wp.YM)) != nil {
			break // subscription closed mid-stream
		}
		applied++
	}
	writeJSON(w, http.StatusOK, wire.WaypointReply{Applied: applied})
}

func (s *Server) handleSubStats(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.lookup(w, r)
	if !ok {
		return
	}
	info := wire.SubscriptionInfo{ID: sub.ID(), Stats: wire.FromSubStats(sub.Stats())}
	if ps, ok := sub.PrefetchStats(); ok {
		wps := wire.FromPrefetchStats(ps)
		info.Prefetch = &wps
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req wire.AdvanceRequest
	if !decodeRequest(w, r, "advance", &req) {
		return
	}
	if err := s.svc.Advance(time.Duration(req.DNS)); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	writeJSON(w, http.StatusOK, wire.Health{OK: true, NowNS: int64(s.svc.Now()), Subscribers: s.svc.Subscribers()})
}

// lookup resolves the {id} path value to a subscription opened on this
// server, writing the error response when it can't.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*mobiquery.Subscription, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		http.Error(w, "bad subscription id", http.StatusBadRequest)
		return nil, false
	}
	s.mu.Lock()
	sub := s.subs[uint32(id)]
	s.mu.Unlock()
	if sub == nil {
		http.Error(w, "no such subscription", http.StatusNotFound)
		return nil, false
	}
	return sub, true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	wire.NewEncoder(w).Encode(v)
}
