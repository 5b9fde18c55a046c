package experiment

import (
	"mobiquery/internal/core"
	"mobiquery/internal/sim"
)

// duePump is the shared clock driver of the experiment harnesses: the one
// PopDue pump loop that churn, prefetch, corridor, and pyramid each used to
// carry a private copy of. It drives the engine the way Service.Advance
// does: per tick it pops every query with a period boundary at or before t
// — in the scheduler's deterministic (due, id) order — drains each popped
// query's due periods on a dispatch worker, deferring the schedule re-arms
// into that worker's RearmBatch, and flushes every batch once the dispatch
// completes. A tick on which nothing is due (most of them, at Tick <<
// Period) is the scheduler's O(stripes) idle peek.
//
// The pump owns the pop, user-lookup, and re-arm scratch so steady-state
// ticks do not allocate; one pump drives one engine from one goroutine.
type duePump[U any] struct {
	eng    *core.QueryEngine
	byID   map[uint32]U
	due    []core.DueEntry
	users  []U
	rearms []*core.RearmBatch
}

// newDuePump returns a pump over eng resolving popped query ids through
// byID. The map is referenced, not copied: harnesses that register users
// mid-run (churn) just keep the map current between ticks.
func newDuePump[U any](eng *core.QueryEngine, byID map[uint32]U) *duePump[U] {
	p := &duePump[U]{eng: eng, byID: byID, rearms: make([]*core.RearmBatch, eng.Workers())}
	for i := range p.rearms {
		p.rearms[i] = eng.NewRearmBatch()
	}
	return p
}

// tick advances the pump to virtual time t: every query with a boundary due
// by t is popped and drained on a dispatch worker, calling step once per
// due boundary in ascending boundary order. step evaluates the boundary
// with EvaluateDueBatch into rb, the worker's re-arm batch, and reports
// whether draining this query may continue; returning false (the
// evaluation refused — the query vanished mid-drain) stops its loop. step
// runs concurrently for distinct users and must only touch u's own state,
// the engine, and harness state that is itself safe to share.
func (p *duePump[U]) tick(t sim.Time, step func(u U, id uint32, boundary sim.Time, rb *core.RearmBatch) bool) {
	p.due = p.eng.PopDue(t, p.due[:0])
	if len(p.due) == 0 {
		return
	}
	p.users = p.users[:0]
	for _, de := range p.due {
		p.users = append(p.users, p.byID[de.ID])
	}
	due, users, rearms := p.due, p.users, p.rearms
	p.eng.DispatchWorkers(len(users), func(worker, i int) {
		u, id := users[i], due[i].ID
		for {
			_, boundary, ok := p.eng.NextDue(id)
			if !ok || boundary > t {
				return
			}
			if !step(u, id, boundary, rearms[worker]) {
				return
			}
		}
	})
	for _, rb := range rearms {
		p.eng.FlushRearms(rb)
	}
}
