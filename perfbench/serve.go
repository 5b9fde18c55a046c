package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mobiquery/internal/loadgen"
	"mobiquery/internal/wire"
)

// serve-h2 drives a mobiquery-serve process over one HTTP/2 connection.
// The generator advances the server's manual clock by one tick on a fixed
// wall schedule, so every period's release instant is known on the
// generator's clock, and opens subscriptions open loop at a fixed rate.
// Both are timed from their scheduled instants: a server that falls
// behind shows up as queueing, never as skipped ticks or a shifted anchor.
const (
	serveNodes    = 5000
	serveRegion   = 2000.0
	servePeriod   = 200 * time.Millisecond
	serveLifetime = 2 * time.Second
	serveRate     = 100.0 // mean subscription arrivals per second (Poisson)
	// serveWarm is how long arrivals run before the measured window, so
	// the window starts at the steady ~200 live streams.
	serveWarm = serveLifetime
	// serveScrape is the /metrics sampling interval inside the window.
	serveScrape = time.Second
)

// serveSetupReps is setupReps for serve-h2, whose set-up (spawn to first
// HTTP/2 answer) is short enough to repeat more often for a steady median.
// serveReps is how many server processes one untraced run measures in
// turn, each for an equal share of the seconds: latency medians shift
// from one server process to the next by more than they wander within
// one, so a run reports the median over processes.
const (
	serveSetupReps = 11
	serveReps      = 3
)

// servePerSub is how many results each stream must deliver.
const servePerSub = int(serveLifetime / servePeriod)

// server is one spawned mobiquery-serve process and an HTTP/2 client.
type server struct {
	cmd    *exec.Cmd
	out    sync.WaitGroup // the stdout reader
	base   string
	client *loadgen.Client
	tr     *http.Transport
	dials  atomic.Int64
}

// spawn starts mobiquery-serve on a free port with a manual clock and
// TLS, and returns once its health endpoint answers over HTTP/2.
//
// The nodes sample once per query period, as on dense-ondemand, so every
// node in a disk holds a reading inside the period-long freshness window
// and each result aggregates the ~90 nodes of its disk. With the server's
// default 1 s sampling only a fifth of them would be fresh, and now and
// then a 100 m disk would have none: its Avg is NaN, which the server
// cannot encode as JSON, and it ends that stream without an end frame.
func spawn(ctx context.Context, bin string, seed int64) (*server, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-tick", "0", "-tls-self",
		"-nodes", strconv.Itoa(serveNodes), "-region", strconv.FormatFloat(serveRegion, 'f', -1, 64),
		"-sample", servePeriod.String(),
		"-seed", strconv.FormatInt(seed, 10), "-drain-grace", "1s")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	s := &server{cmd: cmd}
	lines := make(chan string, 1) // the listening line; later lines are dropped
	s.out.Add(1)
	go func() {
		defer s.out.Done()
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
	}()
	var line string
	select {
	case l, ok := <-lines:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("%s exited before listening", bin)
		}
		line = l
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report its address", bin)
	}
	i := strings.Index(line, "https://")
	if i < 0 {
		s.stop()
		return nil, fmt.Errorf("unexpected listening line %q", line)
	}
	s.base = strings.Fields(line[i:])[0]
	dialer := &net.Dialer{}
	s.tr = &http.Transport{
		ForceAttemptHTTP2: true,
		TLSClientConfig:   &tls.Config{InsecureSkipVerify: true}, // the server's throwaway self-signed cert
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	s.client = &loadgen.Client{Base: s.base, HTTP: &http.Client{Transport: s.tr}}
	if err := loadgen.WaitReady(s.client.HTTP, s.base, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	resp, err := s.client.HTTP.Get(s.base + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.ProtoMajor != 2 {
		s.stop()
		return nil, fmt.Errorf("server negotiated %s, want HTTP/2", resp.Proto)
	}
	return s, nil
}

// stop asks the server to drain and exit, kills it if it does not, and
// waits for the process and its output reader.
func (s *server) stop() {
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.out.Wait()
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

func (s *server) advance(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/advance",
		strings.NewReader(`{"d_ns":`+strconv.FormatInt(int64(tick), 10)+`}`))
	if err != nil {
		return err
	}
	resp, err := s.client.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("advance: %s", resp.Status)
	}
	return nil
}

func (s *server) scrape(ctx context.Context) (promText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

func (s *server) now(ctx context.Context) (time.Duration, error) {
	pt, err := s.scrape(ctx)
	if err != nil {
		return 0, err
	}
	return time.Duration(pt["mobiquery_virtual_time_ns"]), nil
}

// arrival is one scheduled subscription: its offset from the start of
// the schedule and its request.
type arrival struct {
	at  time.Duration
	req wire.SubscribeRequest
}

// serveArrivals derives the subscription schedule over span from the
// seed: Poisson arrivals at serveRate, radii of 100-180 m, every 8th a
// 600 m on-demand query (pyramid), every other 4th JIT plus corridor, all
// moving linearly.
func serveArrivals(seed int64, span time.Duration, traced bool) []arrival {
	rng := rand.New(rand.NewSource(seed ^ 0x5e77e))
	var out []arrival
	at := time.Duration(0)
	for i := 0; ; i++ {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= span {
			return out
		}
		spec := wire.Spec{
			RadiusM:     100 + 80*rng.Float64(),
			PeriodNS:    int64(servePeriod),
			DeadlineNS:  int64(100 * time.Millisecond),
			FreshnessNS: int64(servePeriod),
			LifetimeNS:  int64(serveLifetime),
		}
		lo, width := 0.1, 0.8
		switch {
		case i%8 == 0:
			spec.RadiusM = 600
			lo, width = 0.35, 0.3
		case i%4 == 0:
			spec.Strategy = "jit"
			spec.CorridorLookahead = 3
			spec.ErrBaseM = 5
		}
		if traced {
			spec.TraceID = wire.FormatID(mix(uint64(seed)<<32^uint64(i)) | 1)
		}
		heading, speed := 2*math.Pi*rng.Float64(), 1+3*rng.Float64()
		out = append(out, arrival{at: at, req: wire.SubscribeRequest{Spec: spec, Motion: wire.Motion{
			Kind: "linear",
			XM:   serveRegion * (lo + width*rng.Float64()), YM: serveRegion * (lo + width*rng.Float64()),
			VXMPS: speed * math.Cos(heading), VYMPS: speed * math.Sin(heading),
		}}})
	}
}

// serveTally is what one serve-h2 phase observed inside its window.
type serveTally struct {
	mu                       sync.Mutex
	attempted, failed        int
	results                  int // results received inside the window
	areaNodes                int64
	subscribe, lateness, rtt *samples
	lag                      *samples
	heapPerSub               []float64
	first, last, final       promText
	segs                     *segments
	frames                   []wire.Frame // kept for the wire encode/decode measurement
	window                   time.Duration
}

const keepFrames = 4096

// servePhase runs one open-loop phase against s: serveWarm of arrivals
// before a window of d, then lets every stream finish.
func servePhase(ctx context.Context, s *server, seed int64, d time.Duration, traced bool, log *spanLog) (*serveTally, error) {
	arrivals := serveArrivals(seed, serveWarm+d, traced)
	v0, err := s.now(ctx)
	if err != nil {
		return nil, err
	}
	est := int(d / tick)
	t := &serveTally{
		subscribe: newSamples(len(arrivals)),
		lateness:  newSamples(est * 32),
		rtt:       newSamples(est + 1024),
		lag:       newSamples(len(arrivals) + est + 1024),
		window:    d,
	}
	if traced {
		t.segs = newSegments()
	}
	t0 := time.Now().Add(100 * time.Millisecond)
	winStart, winEnd := t0.Add(serveWarm), t0.Add(serveWarm+d)
	inWindow := func(at time.Time) bool { return !at.Before(winStart) && at.Before(winEnd) }
	// releaseAt is the scheduled wall instant of the Advance that releases
	// a period due at virtual time due.
	releaseAt := func(due time.Duration) time.Time {
		i := (due - v0 + tick - 1) / tick
		return t0.Add(time.Duration(i) * tick)
	}

	// The clock: one Advance per tick on the schedule, one in flight at a
	// time, until every stream has ended.
	advCtx, stopAdv := context.WithCancel(ctx)
	defer stopAdv()
	advErr := make(chan error, 1)
	go func() {
		for i := 1; ; i++ {
			due := t0.Add(time.Duration(i) * tick)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-advCtx.Done():
					advErr <- nil
					return
				case <-time.After(wait):
				}
			} else if advCtx.Err() != nil {
				advErr <- nil
				return
			}
			start := time.Now()
			err := s.advance(advCtx)
			end := time.Now()
			if err != nil {
				if advCtx.Err() != nil {
					err = nil
				}
				advErr <- err
				return
			}
			log.record(0, uint64(i)|1<<63, "advance", start, end)
			if inWindow(due) {
				t.mu.Lock()
				t.rtt.add(end.Sub(start))
				t.lag.add(start.Sub(due))
				t.mu.Unlock()
			}
		}
	}()

	// /metrics inside the window: the first and last scrapes bound the
	// per-layer deltas, and each gives one heap-per-subscription sample.
	scrapeErr := make(chan error, 1)
	go func() {
		for at := winStart; !at.After(winEnd); at = at.Add(serveScrape) {
			select {
			case <-ctx.Done():
				scrapeErr <- ctx.Err()
				return
			case <-time.After(time.Until(at)):
			}
			start := time.Now()
			pt, err := s.scrape(ctx)
			if err != nil {
				scrapeErr <- err
				return
			}
			log.record(0, 0, "scrape", start, time.Now())
			t.mu.Lock()
			if t.first == nil {
				t.first = pt
			}
			t.last = pt
			if subs := pt["mobiquery_subscribers"]; subs > 0 {
				t.heapPerSub = append(t.heapPerSub, pt["mobiquery_go_heap_inuse_bytes"]/subs)
			}
			t.mu.Unlock()
		}
		scrapeErr <- nil
	}()

	var wg sync.WaitGroup
	for n, a := range arrivals {
		due := t0.Add(a.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.stream(ctx, s, n, a.req, due, inWindow, releaseAt, log)
		}()
	}
	streamsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(streamsDone)
	}()
	select {
	case <-streamsDone:
	case err := <-advErr:
		if err == nil {
			err = fmt.Errorf("clock stopped early")
		}
		return nil, fmt.Errorf("advance: %w", err)
	case <-time.After(serveLifetime + 30*time.Second):
		return nil, fmt.Errorf("streams did not finish")
	}
	stopAdv()
	if err := <-advErr; err != nil {
		return nil, fmt.Errorf("advance: %w", err)
	}
	if err := <-scrapeErr; err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	if t.final, err = s.scrape(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// stream runs subscription n from its scheduled arrival to its end frame,
// checking it delivers periods 1..servePerSub in order with none dropped
// and an end frame that agrees with what arrived.
func (t *serveTally) stream(ctx context.Context, s *server, n int, req wire.SubscribeRequest, due time.Time,
	inWindow func(time.Time) bool, releaseAt func(time.Duration) time.Time, log *spanLog) {
	start := time.Now()
	st, err := s.client.Subscribe(ctx, req)
	ack := time.Now()
	var sub int
	if err == nil {
		sub = log.record(0, uint64(n), "subscribe", start, ack)
	}
	var (
		got, ok   int
		late      []time.Duration
		recvIn    int
		area      int64
		frames    []wire.Frame
		endStats  *wire.SubStats
		streamErr = err
	)
	if err == nil {
		for {
			f, err := st.Next()
			recv := time.Now()
			if err != nil {
				streamErr = err
				break
			}
			if f.Type == wire.FrameEnd {
				endStats = f.Stats
				break
			}
			if f.Type != wire.FrameResult || f.Result == nil {
				streamErr = fmt.Errorf("unexpected %q frame", f.Type)
				break
			}
			got++
			if f.Result.K == got {
				ok++
			}
			rel := releaseAt(time.Duration(f.Result.DeadlineNS))
			if inWindow(rel) {
				late = append(late, recv.Sub(rel))
			}
			if inWindow(recv) {
				recvIn++
				area += int64(f.Result.AreaNodes)
			}
			if t.segs != nil && f.Result.Trace != nil {
				if sp, err := f.Result.Trace.PeriodSpan(); err == nil {
					t.mu.Lock()
					t.segs.add(&sp, recv.UnixNano())
					t.mu.Unlock()
				}
			}
			if len(frames) < 4 {
				frames = append(frames, f)
			}
		}
		st.Close()
		log.record(sub, uint64(n), "stream", ack, time.Now())
	}
	failed := servePerSub - ok
	if streamErr != nil || endStats == nil || endStats.Delivered != got || endStats.Dropped != 0 || got != servePerSub {
		failed = max(failed, 1)
	}
	if streamErr != nil {
		note("stream %d ended after %d results: %v", n, got, streamErr)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += servePerSub
	t.failed += failed
	t.results += recvIn
	t.areaNodes += area
	for _, l := range late {
		t.lateness.add(l)
	}
	if inWindow(due) {
		t.subscribe.add(ack.Sub(due))
		t.lag.add(start.Sub(due))
	}
	if len(t.frames) < keepFrames {
		t.frames = append(t.frames, frames...)
	}
}

// promBucket is one cumulative histogram bucket of a scrape.
type promBucket struct{ le, cum float64 }

// promHist returns the cumulative buckets of histogram name{labels} in a
// scrape, by ascending bound.
func promHist(pt promText, name, labels string) []promBucket {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	var out []promBucket
	for k, v := range pt {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue
		}
		out = append(out, promBucket{le, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// promQuantile is the bucket bound holding the nearest-rank q-quantile of
// the observations made between scrapes a and b. A scrape elides buckets
// that gained nothing, so a's cumulative count at any bound is that of its
// nearest bound at or below it.
func promQuantile(a, b promText, name, labels string, q float64) float64 {
	ha, hb := promHist(a, name, labels), promHist(b, name, labels)
	at := func(le float64) float64 {
		var c float64
		for _, x := range ha {
			if x.le > le {
				break
			}
			c = x.cum
		}
		return c
	}
	if len(hb) == 0 {
		return 0
	}
	total := hb[len(hb)-1].cum - at(math.Inf(1))
	if total <= 0 {
		return 0
	}
	target := math.Max(1, math.Ceil(q*total))
	for i, x := range hb {
		if x.cum-at(x.le) >= target {
			if math.IsInf(x.le, 1) && i > 0 {
				return hb[i-1].le
			}
			return x.le
		}
	}
	return 0
}

// wireCost times the wire layer on frames the run received: encoding them
// as the server does, then decoding them as the client does. Per frame,
// median of five passes.
func wireCost(frames []wire.Frame) (encUS, decUS float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	var enc, dec []float64
	var buf bytes.Buffer
	for pass := 0; pass < 5; pass++ {
		buf.Reset()
		e := wire.NewEncoder(&buf)
		start := time.Now()
		for i := range frames {
			if err := e.Encode(&frames[i]); err != nil {
				return 0, 0, err
			}
		}
		enc = append(enc, float64(time.Since(start))/1e3/float64(len(frames)))
		d := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
		start = time.Now()
		for range frames {
			var f wire.Frame
			if err := d.Decode(&f); err != nil {
				return 0, 0, err
			}
		}
		dec = append(dec, float64(time.Since(start))/1e3/float64(len(frames)))
	}
	return median(enc), median(dec), nil
}

func runServe(ctx context.Context, p params, log *spanLog) (*result, error) {
	if p.serve == "" {
		return nil, fmt.Errorf("serve-h2 needs --serve, the mobiquery-serve binary")
	}
	if !p.trace {
		return e2eServe(ctx, p)
	}
	return layersServe(ctx, p, log)
}

// layersServe is the diagnostic run: an untraced phase, then a phase with
// every subscription traced, each on a fresh server for half the seconds.
func layersServe(ctx context.Context, p params, log *spanLog) (*result, error) {
	phase := func(traced bool, log *spanLog) (*serveTally, int64, error) {
		s, err := spawn(ctx, p.serve, p.seed)
		if err != nil {
			return nil, 0, err
		}
		defer s.stop()
		t, err := servePhase(ctx, s, p.seed, p.seconds/2, traced, log)
		return t, s.dials.Load(), err
	}
	a, conns, err := phase(false, nil)
	if err != nil {
		return nil, err
	}
	c, _, err := phase(true, log)
	if err != nil {
		return nil, err
	}
	failed := a.failed + c.failed
	res := &result{Attempted: a.attempted + c.attempted, Failed: failed, Correct: failed == 0, Metrics: &metricSet{}}
	m := res.Metrics
	f, l := a.first, a.last
	delta := func(series string) float64 { return l[series] - f[series] }
	hist := func(name, labels string) (sum, count float64) {
		sfx := ""
		if labels != "" {
			sfx = "{" + labels + "}"
		}
		return delta(name + "_sum" + sfx), delta(name + "_count" + sfx)
	}
	var evaluated float64
	for _, cl := range classNames {
		evaluated += delta(`mobiquery_periods_evaluated_total{class="` + cl + `"}`)
	}
	popS, popN := hist("mobiquery_advance_stage_seconds", `stage="pop"`)
	evalS, _ := hist("mobiquery_advance_stage_seconds", `stage="evaluate"`)
	flushS, flushN := hist("mobiquery_advance_stage_seconds", `stage="flush"`)
	delivS, _ := hist("mobiquery_advance_stage_seconds", `stage="deliver"`)
	batchS, batchN := hist("mobiquery_advance_pop_batch", "")
	mergeS, mergeN := hist("mobiquery_advance_merge_depth", "")
	m.add("mobiquery.pop_us_per_step", ratio(popS, popN)*1e6, "us")
	m.add("mobiquery.evaluate_us_per_period", ratio(evalS, evaluated)*1e6, "us")
	m.add("mobiquery.flush_us_per_step", ratio(flushS, flushN)*1e6, "us")
	m.add("mobiquery.deliver_us_per_period", ratio(delivS, evaluated)*1e6, "us")
	m.add("mobiquery.due_per_step", ratio(batchS, batchN), "count")
	m.add("core.merge_depth_mean", ratio(mergeS, mergeN), "count")
	m.add("geom.area_nodes_per_period", ratio(float64(a.areaNodes), float64(a.results)), "count")
	// The server's allocation and GC counters are not exported over the
	// wire, and its Subscribe call is not timed separately from the
	// request; those layer metrics are 0 here.
	m.add("mobiquery.allocs_per_period", 0, "count")
	m.add("mobiquery.bytes_per_period", 0, "B")
	m.add("mobiquery.gc_cpu_fraction", 0, "ratio")
	m.add("mobiquery.parallel_speedup", 0, "x")
	m.add("mobiquery.subscribe_us_p50", 0, "us")
	m.add("mobiquery.subscribe_us_p99", 0, "us")
	for _, cl := range classNames {
		lbl := `class="` + cl + `"`
		m.add("eval."+cl+"_us_p50", promQuantile(f, l, "mobiquery_evaluate_seconds", lbl, 0.5)*1e6, "us")
		m.add("eval."+cl+"_periods", delta(`mobiquery_periods_evaluated_total{`+lbl+`}`), "count")
	}
	// The corridor and planner ledgers are per subscription, and the
	// pyramid's decline and visit counts are not exported: 0 here.
	m.add("corridor.hits", 0, "count")
	m.add("corridor.mispredicts", 0, "count")
	m.add("corridor.hit_ratio", 0, "ratio")
	m.add("corridor.staged_per_hit", 0, "count")
	m.add("prefetch.replans", 0, "count")
	m.add("prefetch.replans_per_sub", 0, "count")
	m.add("pyramid.serves", delta("mobiquery_pyramid_serves_total"), "count")
	m.add("pyramid.builds", delta("mobiquery_pyramid_builds_total"), "count")
	m.add("pyramid.serve_ratio", 0, "ratio")
	m.add("pyramid.visit_advantage", 0, "x")
	c.segs.report(m)
	encUS, decUS, err := wireCost(c.frames)
	if err != nil {
		return nil, err
	}
	m.add("wire.decode_us_per_frame", decUS, "us")
	m.add("wire.encode_us_per_frame", encUS, "us")
	m.add("server.advance_rtt_ms_p99", a.rtt.ms(0.99), "ms")
	m.add("server.heap_inuse_bytes", a.final["mobiquery_go_heap_inuse_bytes"], "B")
	m.add("gen.connections", float64(conns), "count")
	m.add("gen.lag_ms_p99", a.lag.ms(0.99), "ms")
	m.add("obs.trace_overhead_pct", 100*(c.rtt.ms(0.5)/a.rtt.ms(0.5)-1), "%")
	addTails(m, a.rtt, a.lateness, a.subscribe)
	return res, nil
}

// e2eServe is the untraced run: the end-to-end metrics, as medians over
// serveReps server processes.
func e2eServe(ctx context.Context, p params) (*result, error) {
	var setups []float64
	spawnTimed := func() (*server, error) {
		start := time.Now()
		s, err := spawn(ctx, p.serve, p.seed)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
		}
		return s, err
	}
	for i := 0; i < serveSetupReps-serveReps; i++ {
		s, err := spawnTimed()
		if err != nil {
			return nil, err
		}
		s.stop()
	}
	res := &result{Metrics: &metricSet{}}
	var results int
	var window time.Duration
	var heap []float64
	q := map[string][]float64{}
	for rep := 0; rep < serveReps; rep++ {
		s, err := spawnTimed()
		if err != nil {
			return nil, err
		}
		t, err := servePhase(ctx, s, p.seed+int64(rep)<<20, p.seconds/serveReps, false, nil)
		conns := s.dials.Load()
		s.stop()
		if err != nil {
			return nil, err
		}
		note("serve-h2 process %d: %d results in window; subscribe n=%d, lateness n=%d, advance n=%d, connections %d; p50 step %.3f late %.3f sub %.3f",
			rep, t.results, t.subscribe.n(), t.lateness.n(), t.rtt.n(), conns, t.rtt.ms(0.5), t.lateness.ms(0.5), t.subscribe.ms(0.5))
		res.Attempted += t.attempted
		res.Failed += t.failed
		results += t.results
		window += t.window
		heap = append(heap, t.heapPerSub...)
		q["step_p50_ms"] = append(q["step_p50_ms"], t.rtt.ms(0.5))
		q["lateness_p50_ms"] = append(q["lateness_p50_ms"], t.lateness.ms(0.5))
		q["subscribe_p50_ms"] = append(q["subscribe_p50_ms"], t.subscribe.ms(0.5))
	}
	res.Correct = res.Failed == 0
	m := res.Metrics
	m.add("setup_s", median(setups), "s")
	m.add("periods_per_s", float64(results)/window.Seconds(), "1/s")
	for _, name := range []string{"step_p50_ms", "lateness_p50_ms", "subscribe_p50_ms"} {
		m.add(name, median(q[name]), "ms")
	}
	m.add("heap_bytes_per_sub", median(heap), "B")
	return res, nil
}
