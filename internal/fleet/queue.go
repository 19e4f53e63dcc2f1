package fleet

import (
	"slices"
	"sort"
)

// fairQueue holds queued jobs in per-tenant weighted fair-share queues
// with strict priority bands on top. Selection order:
//
//  1. the highest priority with any queued job wins outright (strict
//     bands — priorities express urgency, not shares);
//  2. within that band, the tenant with the lowest virtual time runs
//     next (weighted fair queuing: popping a job advances the tenant's
//     virtual time by 1/weight, so a weight-3 tenant is charged a third
//     as much per job and receives three times the dispatch rate under
//     contention);
//  3. within a tenant and band, FIFO by admission sequence.
//
// A tenant that goes idle and returns does not get to bank its idle
// time: on its first job after being empty, its virtual time is lifted
// to the minimum virtual time of the currently backlogged tenants, so
// it competes from "now" rather than replaying its entire absence.
// Together with strict FIFO inside a band this makes the queue
// starvation-free for equal priorities; across bands, starvation of
// lower priorities under sustained higher-priority load is the
// documented, intended semantics.
//
// fairQueue is not safe for concurrent use; the Coordinator guards it
// with its own mutex.
type fairQueue struct {
	tenants map[string]*tenantQueue
	size    int
}

// tenantQueue is one fair-share account.
type tenantQueue struct {
	name    string
	weight  int
	vtime   float64
	started int64 // jobs popped over the queue's lifetime
	// byPrio holds FIFO slices per priority band; index = priority.
	byPrio [maxPriority + 1][]*fjob
	queued int
}

// maxPriority bounds the priority range ([0, maxPriority]).
const maxPriority = 9

func newFairQueue() *fairQueue {
	return &fairQueue{tenants: make(map[string]*tenantQueue)}
}

// tenant returns (creating if needed) the named account. The first
// submission fixes the weight; later submissions with a different
// weight do not silently rewrite history.
func (q *fairQueue) tenant(name string, weight int) *tenantQueue {
	t, ok := q.tenants[name]
	if !ok {
		if weight <= 0 {
			weight = 1
		}
		if weight > 100 {
			weight = 100
		}
		t = &tenantQueue{name: name, weight: weight}
		q.tenants[name] = t
	}
	return t
}

// push enqueues a job under its tenant and priority.
func (q *fairQueue) push(j *fjob) {
	t := q.tenant(j.tenant, j.weight)
	if t.queued == 0 {
		// Re-entering after idleness: lift the tenant's clock to the
		// backlogged minimum so it cannot starve everyone with banked
		// idle time.
		if min, ok := q.minBackloggedVTime(); ok && t.vtime < min {
			t.vtime = min
		}
	}
	// By admission sequence, not arrival: a requeued job goes back in
	// front of everything admitted after it.
	fifo := t.byPrio[j.priority]
	at := sort.Search(len(fifo), func(i int) bool { return fifo[i].Seq > j.Seq })
	t.byPrio[j.priority] = slices.Insert(fifo, at, j)
	t.queued++
	q.size++
}

// minBackloggedVTime is the smallest virtual time among tenants with
// queued work.
func (q *fairQueue) minBackloggedVTime() (float64, bool) {
	min, ok := 0.0, false
	for _, t := range q.tenants {
		if t.queued == 0 {
			continue
		}
		if !ok || t.vtime < min {
			min, ok = t.vtime, true
		}
	}
	return min, ok
}

// pop removes and returns the next job to dispatch, or nil when empty.
// eligible filters jobs (nil = all): a job for which eligible returns
// false is skipped in place — used to hold back jobs in dispatch
// backoff without losing their position.
func (q *fairQueue) pop(eligible func(*fjob) bool) *fjob {
	if q.size == 0 {
		return nil
	}
	for prio := maxPriority; prio >= 0; prio-- {
		// Among tenants with work at this band, lowest vtime first; ties
		// break by name so selection is deterministic.
		var best *tenantQueue
		var bestIdx int
		for _, name := range sortedKeys(q.tenants) {
			t := q.tenants[name]
			idx := t.firstEligible(prio, eligible)
			if idx < 0 {
				continue
			}
			if best == nil || t.vtime < best.vtime || (t.vtime == best.vtime && t.name < best.name) {
				best, bestIdx = t, idx
			}
		}
		if best == nil {
			continue
		}
		j := best.byPrio[prio][bestIdx]
		best.byPrio[prio] = append(best.byPrio[prio][:bestIdx], best.byPrio[prio][bestIdx+1:]...)
		best.queued--
		best.vtime += 1.0 / float64(best.weight)
		best.started++
		q.size--
		return j
	}
	return nil
}

// firstEligible returns the index of the first eligible job in the
// tenant's FIFO at prio, or -1.
func (t *tenantQueue) firstEligible(prio int, eligible func(*fjob) bool) int {
	for i, j := range t.byPrio[prio] {
		if eligible == nil || eligible(j) {
			return i
		}
	}
	return -1
}

// peekPriority returns the highest priority with an eligible queued
// job, or -1 when none. The dispatcher uses it to decide whether a
// pending job outranks anything currently running (preemption test)
// without dequeuing.
func (q *fairQueue) peekPriority(eligible func(*fjob) bool) int {
	if q.size == 0 {
		return -1
	}
	for prio := maxPriority; prio >= 0; prio-- {
		for _, t := range q.tenants {
			if t.firstEligible(prio, eligible) >= 0 {
				return prio
			}
		}
	}
	return -1
}

// len is the number of queued jobs.
func (q *fairQueue) len() int { return q.size }

// snapshot fills the statusz tenant table.
func (q *fairQueue) snapshot() []TenantStatus {
	out := make([]TenantStatus, 0, len(q.tenants))
	for _, name := range sortedKeys(q.tenants) {
		t := q.tenants[name]
		out = append(out, TenantStatus{
			Name: t.name, Weight: t.weight, Queued: t.queued,
			VTime: t.vtime, Started: t.started,
		})
	}
	return out
}
