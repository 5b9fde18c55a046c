package core

import (
	"math"
	"sync"
	"sync/atomic"

	"mobiquery/internal/sim"
)

// DueEntry is one scheduled period boundary: query ID's next result is due
// at Due.
type DueEntry struct {
	ID  uint32
	Due sim.Time
}

// dueLess orders entries by (Due, ID): a total order, so pops are
// deterministic regardless of insertion interleaving.
func dueLess(a, b DueEntry) bool {
	if a.Due != b.Due {
		return a.Due < b.Due
	}
	return a.ID < b.ID
}

// stripeEmpty is the published head of a stripe with no entries: later than
// any real due time, so the idle fast path skips the stripe with one load.
const stripeEmpty = math.MaxInt64

// scheduleStripe is one partition of the scheduler: the entries of every
// query id hashing to this stripe, in a 4-ary min-heap with a position map
// for O(log n) upsert and remove by id, behind the stripe's own leaf mutex.
// A 4-ary layout was chosen over the classic binary heap and over a
// hierarchical timing wheel after benchmarking (see BenchmarkSchedule* in
// schedule_test.go): the shallower tree does fewer cache-missing hops per
// sift than arity 2, and unlike a timing wheel it needs no tick cascading,
// imposes no resolution floor on periods, and pops in exactly the sorted
// order the deterministic k-way merge needs.
type scheduleStripe struct {
	mu   sync.Mutex
	heap []DueEntry
	pos  map[uint32]int // query id -> index in heap
	// head is the stripe's minimum due time (stripeEmpty when empty),
	// written only under mu and read lock-free by PopDue's idle fast path —
	// always authoritative for this stripe, so no cross-stripe coherence
	// protocol is needed.
	head atomic.Int64
	// drain is the stripe's popped-prefix scratch for PopDue's merge. It is
	// filled under mu and read after mu is released; the popper mutex
	// (Schedule.popMu) is what guards it across that window.
	drain []DueEntry
}

// Schedule is the due-period scheduler behind O(due) ticking: a priority
// queue of (Due, ID) pairs, one per live temporal query, ordered by due
// time with ties broken by ascending id. Advancing the clock pops exactly
// the queries whose next boundary has been reached — an idle tick peeks
// the per-stripe heads and returns, independent of how many queries are
// registered.
//
// The queue is striped: entries are partitioned by id across power-of-two
// stripes, each a heap behind its own leaf lock, so re-arm Upserts from
// parallel workers for different stripes never contend. PopDue restores
// the global (due, id) order with a deterministic k-way merge over the
// stripes' sorted due prefixes — output is element-wise identical for any
// stripe count (TestScheduleStripedMatchesSingle pins this), which is what
// keeps the service's delivery contract and digest pins stripe-blind.
//
// All methods are safe for concurrent use; stripe mutexes are leaf locks
// (nothing else is acquired under them), and poppers serialize on popMu.
type Schedule struct {
	stripes []scheduleStripe
	mask    uint32
	// popMu serializes PopDue's drain-and-merge (and guards cursors), so
	// concurrent poppers cannot interleave entries out of (due, id) order.
	// Upsert and Remove never take it.
	popMu   sync.Mutex
	cursors []mergeCursor
	// mergeDepth is the number of stripes that contributed entries to the
	// most recent non-empty PopDue — the merge's fan-in, a balance signal.
	mergeDepth atomic.Int64
}

// NewSchedule returns an empty single-stripe scheduler: the zero-contention
// layout, and the baseline the striped property tests compare against.
func NewSchedule() *Schedule {
	return NewScheduleStriped(1)
}

// maxScheduleStripes bounds the stripe count: beyond the registry's own 64
// stripes more partitions buy no concurrency, and the idle fast path scans
// one atomic per stripe.
const maxScheduleStripes = 64

// NewScheduleStriped returns an empty scheduler with at least n stripes,
// rounded up to a power of two and clamped to [1, 64]. Any stripe count
// yields identical PopDue output; n only tunes lock contention.
func NewScheduleStriped(n int) *Schedule {
	p := 1
	for p < n && p < maxScheduleStripes {
		p <<= 1
	}
	s := &Schedule{stripes: make([]scheduleStripe, p), mask: uint32(p - 1)}
	for i := range s.stripes {
		s.stripes[i].pos = make(map[uint32]int)
		s.stripes[i].head.Store(stripeEmpty)
	}
	return s
}

// StripeCount returns the number of stripes.
func (s *Schedule) StripeCount() int { return len(s.stripes) }

// stripeIndex maps a query id to its stripe. Exposed within the package so
// the engine's batched re-arm can bucket by stripe without re-hashing.
func (s *Schedule) stripeIndex(id uint32) int { return int(id & s.mask) }

func (s *Schedule) stripeFor(id uint32) *scheduleStripe {
	return &s.stripes[id&s.mask]
}

// Len returns the number of scheduled queries.
func (s *Schedule) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += len(st.heap)
		st.mu.Unlock()
	}
	return n
}

// Upsert schedules (or reschedules) query id's next boundary at due.
func (s *Schedule) Upsert(id uint32, due sim.Time) {
	st := s.stripeFor(id)
	st.mu.Lock()
	st.upsert(id, due)
	st.publishHead()
	st.mu.Unlock()
}

// Remove drops query id from the schedule. Unknown ids are a no-op.
func (s *Schedule) Remove(id uint32) {
	st := s.stripeFor(id)
	st.mu.Lock()
	if i, ok := st.pos[id]; ok {
		st.removeAt(i)
		st.publishHead()
	}
	st.mu.Unlock()
}

// NextDue peeks the earliest scheduled boundary without popping it. ok is
// false when nothing is scheduled.
func (s *Schedule) NextDue() (DueEntry, bool) {
	var best DueEntry
	found := false
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if len(st.heap) > 0 && (!found || dueLess(st.heap[0], best)) {
			best, found = st.heap[0], true
		}
		st.mu.Unlock()
	}
	return best, found
}

// PopDue removes and returns every entry with Due <= now, appended to buf
// in ascending (Due, ID) order. Popped queries stay out of the schedule
// until rescheduled (a flushed EvaluateDueBatch re-arms a query at its
// next boundary), so the caller owns driving each popped query forward.
// When nothing is due the call is a lock-free scan of the per-stripe
// heads: O(stripes), no allocation — this is what keeps an idle Advance
// independent of the subscriber count.
func (s *Schedule) PopDue(now sim.Time, buf []DueEntry) []DueEntry {
	due := false
	for i := range s.stripes {
		if s.stripes[i].head.Load() <= int64(now) {
			due = true
			break
		}
	}
	if !due {
		return buf
	}

	// Something is (or just was) due: drain each stripe's due prefix under
	// its leaf lock, then merge the sorted runs back into one (due, id)
	// stream. popMu serializes poppers and owns the drain/cursor scratch.
	s.popMu.Lock()
	defer s.popMu.Unlock()
	cur := s.cursors[:0]
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.drain = st.drain[:0]
		for len(st.heap) > 0 && st.heap[0].Due <= now {
			st.drain = append(st.drain, st.heap[0])
			st.removeAt(0)
		}
		st.publishHead()
		st.mu.Unlock()
		if len(st.drain) > 0 {
			cur = append(cur, mergeCursor{entries: st.drain})
		}
	}
	s.cursors = cur
	if len(cur) == 0 {
		// The due entry was popped or removed between the head scan and the
		// drain (concurrent popper or Remove) — nothing left for us.
		return buf
	}
	s.mergeDepth.Store(int64(len(cur)))
	if len(cur) == 1 {
		return append(buf, cur[0].entries...)
	}
	return mergeDue(cur, buf)
}

// ScheduleStats is a point-in-time snapshot of the striped scheduler.
type ScheduleStats struct {
	// Stripes is the stripe count; Len the total number of scheduled
	// queries; StripeLens the per-stripe entry counts (balance).
	Stripes    int
	Len        int
	StripeLens []int
	// LastMergeDepth is how many stripes contributed entries to the most
	// recent non-empty PopDue — the k of its k-way merge.
	LastMergeDepth int
}

// Stats snapshots the scheduler. Each stripe is read under its own lock;
// the snapshot is per-stripe consistent, not globally atomic.
func (s *Schedule) Stats() ScheduleStats {
	var out ScheduleStats
	s.StatsInto(&out)
	return out
}

// StatsInto is Stats writing into a caller-owned snapshot, reusing its
// StripeLens capacity — the allocation-free form for periodic samplers
// (a metrics scrape, the /v1/stats handler) that snapshot on every call.
func (s *Schedule) StatsInto(out *ScheduleStats) {
	out.Stripes = len(s.stripes)
	out.Len = 0
	out.LastMergeDepth = int(s.mergeDepth.Load())
	out.StripeLens = out.StripeLens[:0]
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n := len(st.heap)
		st.mu.Unlock()
		out.StripeLens = append(out.StripeLens, n)
		out.Len += n
	}
}

// LastMergeDepth returns the stripe fan-in of the most recent non-empty
// PopDue — one atomic load, cheap enough for the per-tick metrics path
// where a full Stats snapshot (one lock hold per stripe) is not.
func (s *Schedule) LastMergeDepth() int { return int(s.mergeDepth.Load()) }

// mergeCursor is one stripe's sorted due run inside PopDue's k-way merge.
type mergeCursor struct {
	entries []DueEntry
	next    int
}

// mergeDue merges the cursors' sorted runs into buf in (due, id) order via
// a binary heap of cursors — O(total · log k) for k contributing stripes.
// Caller holds popMu (the cursors alias stripe drain scratch).
func mergeDue(cur []mergeCursor, buf []DueEntry) []DueEntry {
	less := func(a, b *mergeCursor) bool {
		return dueLess(a.entries[a.next], b.entries[b.next])
	}
	sift := func(i, n int) {
		for {
			min := i
			if l := 2*i + 1; l < n && less(&cur[l], &cur[min]) {
				min = l
			}
			if r := 2*i + 2; r < n && less(&cur[r], &cur[min]) {
				min = r
			}
			if min == i {
				return
			}
			cur[i], cur[min] = cur[min], cur[i]
			i = min
		}
	}
	n := len(cur)
	for i := n/2 - 1; i >= 0; i-- {
		sift(i, n)
	}
	for n > 0 {
		c := &cur[0]
		buf = append(buf, c.entries[c.next])
		c.next++
		if c.next == len(c.entries) {
			cur[0] = cur[n-1]
			n--
		}
		sift(0, n)
	}
	return buf
}

// publishHead republishes the stripe's minimum due for the lock-free idle
// scan. Caller holds st.mu.
func (st *scheduleStripe) publishHead() {
	if len(st.heap) == 0 {
		st.head.Store(stripeEmpty)
		return
	}
	st.head.Store(int64(st.heap[0].Due))
}

// upsert schedules (or reschedules) id at due within this stripe. Caller
// holds st.mu and republishes the head afterwards — batched re-arms upsert
// many entries under one lock hold and publish once.
func (st *scheduleStripe) upsert(id uint32, due sim.Time) {
	if i, ok := st.pos[id]; ok {
		old := st.heap[i].Due
		st.heap[i].Due = due
		if due < old {
			st.siftUp(i)
		} else if due > old {
			st.siftDown(i)
		}
		return
	}
	st.heap = append(st.heap, DueEntry{ID: id, Due: due})
	i := len(st.heap) - 1
	st.pos[id] = i
	st.siftUp(i)
}

// removeAt deletes the entry at heap index i. Caller holds st.mu.
func (st *scheduleStripe) removeAt(i int) {
	last := len(st.heap) - 1
	delete(st.pos, st.heap[i].ID)
	if i != last {
		moved := st.heap[last]
		st.heap[i] = moved
		st.pos[moved.ID] = i
	}
	st.heap = st.heap[:last]
	if i < last {
		// The displaced entry may belong above or below its new slot.
		st.siftDown(i)
		st.siftUp(i)
	}
}

// arity is the heap branching factor.
const arity = 4

func (st *scheduleStripe) siftUp(i int) {
	e := st.heap[i]
	for i > 0 {
		parent := (i - 1) / arity
		if !dueLess(e, st.heap[parent]) {
			break
		}
		st.heap[i] = st.heap[parent]
		st.pos[st.heap[i].ID] = i
		i = parent
	}
	st.heap[i] = e
	st.pos[e.ID] = i
}

func (st *scheduleStripe) siftDown(i int) {
	n := len(st.heap)
	e := st.heap[i]
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if dueLess(st.heap[c], st.heap[min]) {
				min = c
			}
		}
		if !dueLess(st.heap[min], e) {
			break
		}
		st.heap[i] = st.heap[min]
		st.pos[st.heap[i].ID] = i
		i = min
	}
	st.heap[i] = e
	st.pos[e.ID] = i
}
