package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobiquery"
)

// samples is a growable set of durations, summarized by nearest-rank
// quantiles. Capacity is reserved up front so appending during a timed
// phase does not charge the benchmark's own allocations to the program.
type samples struct{ v []int64 }

func newSamples(capacity int) *samples { return &samples{v: make([]int64, 0, capacity)} }

func (s *samples) add(d time.Duration) { s.v = append(s.v, int64(d)) }

func (s *samples) n() int { return len(s.v) }

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when
// empty). It sorts in place; adding afterwards is still allowed.
func (s *samples) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	slices.Sort(s.v)
	i := int(math.Ceil(q*float64(len(s.v)))) - 1
	i = max(0, min(i, len(s.v)-1))
	return float64(s.v[i])
}

func (s *samples) ms(q float64) float64 { return s.quantile(q) / 1e6 }
func (s *samples) us(q float64) float64 { return s.quantile(q) / 1e3 }

// median of a small float set (setup repetitions).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest folds delivered results into an order-independent 64-bit sum, so
// parallel evaluation and delivery order cannot change it while any
// difference in a result's content does.
type digest uint64

func (d *digest) fold(sub int, r *mobiquery.QueryResult) {
	h := mix(uint64(sub)<<32 ^ uint64(r.K))
	h = mix(h ^ math.Float64bits(r.Value))
	h = mix(h ^ uint64(r.Contributors)<<32 ^ uint64(r.AreaNodes))
	h = mix(h ^ math.Float64bits(r.Fidelity))
	*d += digest(h)
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// procStats is a snapshot of the process runtime counters a timed phase
// is charged with: allocations, and CPU seconds spent in GC versus total.
type procStats struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return procStats{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   cpuSamples[0].Value.Float64(),
		allCPU:  cpuSamples[1].Value.Float64(),
	}
}

// heapAfterGC is the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// histSnap is a copy of one obs histogram's buckets, so a timed phase can
// be read as the difference of two snapshots.
type histSnap struct {
	bounds []int64 // inclusive upper bound per bucket; MaxInt64 for +Inf
	counts []uint64
	sum    int64
}

// histogram is the metric-reading surface of the service registry's
// histograms (obs.Histogram).
type histogram interface {
	NumBuckets() int
	Bucket(i int) (bound int64, count uint64, ok bool)
	Sum() int64
}

func snapHist(h histogram) histSnap {
	n := h.NumBuckets()
	s := histSnap{bounds: make([]int64, n), counts: make([]uint64, n), sum: h.Sum()}
	for i := 0; i < n; i++ {
		b, c, ok := h.Bucket(i)
		if !ok {
			b = math.MaxInt64
		}
		s.bounds[i], s.counts[i] = b, c
	}
	return s
}

// since returns the observations made between prev and s.
func (s histSnap) since(prev histSnap) histSnap {
	d := histSnap{bounds: s.bounds, counts: make([]uint64, len(s.counts)), sum: s.sum - prev.sum}
	for i := range s.counts {
		d.counts[i] = s.counts[i]
		if i < len(prev.counts) {
			d.counts[i] -= prev.counts[i]
		}
	}
	return d
}

func (s histSnap) count() uint64 {
	var n uint64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// quantile is the upper bound of the bucket holding the nearest-rank
// q-quantile (histogram resolution is a quarter octave), 0 when empty.
func (s histSnap) quantile(q float64) float64 {
	total := s.count()
	if total == 0 {
		return 0
	}
	target := max(1, uint64(math.Ceil(q*float64(total))))
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			if s.bounds[i] == math.MaxInt64 && i > 0 {
				return float64(s.bounds[i-1])
			}
			return float64(s.bounds[i])
		}
	}
	return 0
}

// promText is one parsed Prometheus text exposition: sample value by
// series (`name{labels}` exactly as rendered).
type promText map[string]float64

func parseProm(r io.Reader) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// spanLog is the benchmark's own trace: one span around each call it
// makes into a layer, kept in memory and written out when the run ends.
// Spans of one request (a subscription, an Advance step) share Req;
// Parent links a call to the span that made it.
type spanLog struct {
	mu      sync.Mutex
	on      bool
	spans   []benchSpan
	dropped int
}

type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds the in-memory log; later spans are only counted.
const spanCap = 1 << 20

// record stores a finished span and returns its id (0 when tracing is off
// or the log is full) for children to name as parent.
func (l *spanLog) record(parent int, req uint64, name string, start, end time.Time) int {
	if l == nil || !l.on {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= spanCap {
		l.dropped++
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, benchSpan{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// write stores the log as NDJSON, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// classNames are the serve classes a period span reports, in the order
// the per-class metrics are printed.
var classNames = []string{"cold", "planned", "corridor", "pyramid"}

// segNames are the consecutive segments of a period's echoed span; each
// is its own self time because the segments do not overlap.
var segNames = []string{"pop_to_eval", "eval", "eval_to_flush", "flush_to_deliver", "deliver_to_recv"}

// segments collects the segment durations of traced periods, per class,
// plus the two halves of deliver_to_recv a network front-end splits it
// into (server deliver to wire write, wire write to client receive).
type segments struct {
	by                 map[string][]*samples
	toWire, wireToRecv *samples
}

func newSegments() *segments {
	s := &segments{by: map[string][]*samples{}, toWire: newSamples(0), wireToRecv: newSamples(0)}
	for _, c := range classNames {
		for range segNames {
			s.by[c] = append(s.by[c], newSamples(0))
		}
	}
	return s
}

// add records one period span received at recvNS (wall clock).
func (s *segments) add(sp *mobiquery.PeriodSpan, recvNS int64) {
	c := s.by[sp.Class.String()]
	if c == nil {
		return
	}
	d := []int64{
		sp.EvalStartNS - sp.PoppedNS,
		sp.EvalEndNS - sp.EvalStartNS,
		sp.FlushNS - sp.EvalEndNS,
		sp.DeliveredNS - sp.FlushNS,
		recvNS - sp.DeliveredNS,
	}
	for i, v := range d {
		c[i].add(time.Duration(v))
	}
	if sp.WireNS != 0 {
		s.toWire.add(time.Duration(sp.WireNS - sp.DeliveredNS))
		s.wireToRecv.add(time.Duration(recvNS - sp.WireNS))
	}
}

// report adds the per-class segment medians to m.
func (s *segments) report(m *metricSet) {
	for _, c := range classNames {
		for i, seg := range segNames {
			m.add("span."+c+"."+seg+"_us", s.by[c][i].us(0.5), "us")
		}
	}
	m.add("span.deliver_to_wire_us", s.toWire.us(0.5), "us")
	m.add("span.wire_to_recv_us", s.wireToRecv.us(0.5), "us")
}
