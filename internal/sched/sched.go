// Package sched implements the warp scheduling policies evaluated in the
// paper: LRR (the GPGPU-Sim baseline), GTO, a two-level scheduler in the
// style of Narasiman et al., and the paper's Owner-Warp-First (OWF).
//
// A scheduler ranks the warp slots it manages each cycle; the SM issue
// stage walks the ranking and issues the first warp that passes all
// hazard checks. This mirrors GPGPU-Sim's ordered-warp scheduler design.
//
// GTO and OWF additionally implement Incremental: instead of re-sorting
// every warp every cycle, the SM pushes per-warp view changes through
// Sync as they happen and reads the maintained ranking back through
// OrderReady. The incremental ranking is proven output-identical to the
// legacy sort-based Order (see the property tests) and allocation-free
// in steady state.
package sched

import (
	"fmt"
	"sort"

	"gpushare/internal/config"
	"gpushare/internal/core"
)

// WarpInfo is the per-warp view a scheduler ranks on.
type WarpInfo struct {
	Slot     int           // warp slot index within the SM
	DynID    int64         // dynamic (launch-order) id; lower = older
	Category core.Category // owner / unshared / non-owner
	HasWork  bool          // has a decoded instruction to consider
	// WaitingLong marks warps whose next instruction waits on an
	// outstanding global-memory load; the two-level scheduler demotes
	// their fetch group.
	WaitingLong bool
}

// Scheduler ranks warps for issue.
type Scheduler interface {
	// Order writes the slots to consider, in priority order, into out
	// and returns it. Warps with HasWork == false may be omitted.
	Order(warps []WarpInfo, out []int) []int
	// Issued informs the scheduler that slot issued this cycle.
	Issued(slot int)
}

// Incremental is implemented by schedulers that maintain an internal
// ready structure instead of re-ranking the full warp set every cycle.
// The caller pushes per-warp view changes through Sync on the events
// that can change them (issue, writeback, barrier release, ownership
// transfer, block launch); OrderReady then reads the maintained ranking
// back without scanning, sorting, or allocating. For any sequence of
// Sync calls, OrderReady equals Order applied to the synced views.
type Incremental interface {
	Scheduler
	// Sync replaces the scheduler's view of info.Slot.
	Sync(info WarpInfo)
	// OrderReady appends the maintained ranking to out and returns it.
	OrderReady(out []int) []int
	// AuditReady cross-checks the internal ready structure against the
	// given warp views (the auditor's from-scratch recompute): membership
	// must equal the HasWork slots and the order must match the legacy
	// ranking. Read-only.
	AuditReady(warps []WarpInfo) error
}

// New returns a scheduler implementing the given policy. groupSize is
// used by the two-level policy only.
func New(policy config.SchedPolicy, groupSize int) Scheduler {
	switch policy {
	case config.SchedGTO:
		return &gto{last: -1}
	case config.SchedTwoLevel:
		if groupSize <= 0 {
			groupSize = 8
		}
		return &twoLevel{group: groupSize, last: -1}
	case config.SchedOWF:
		return &owf{last: -1, rank: readyRank{byCategory: true}}
	default:
		return &lrr{last: -1}
	}
}

// lrr is loose round-robin: each cycle the search starts one past the
// last issued warp. last records the issued warp's *slot number*; Order
// resolves it to a position in the info slice, because with multiple
// schedulers the slots a scheduler manages are interleaved and slot
// numbers are not positions.
type lrr struct {
	last int // slot number of the last issued warp; -1 before any issue
}

// posOfSlot returns the position of the warp with the given slot number
// in the info slice, or -1 when absent.
func posOfSlot(warps []WarpInfo, slot int) int {
	if slot < 0 {
		return -1
	}
	for i := range warps {
		if warps[i].Slot == slot {
			return i
		}
	}
	return -1
}

func (s *lrr) Order(warps []WarpInfo, out []int) []int {
	start := posOfSlot(warps, s.last) + 1 // -1 (not found) resumes at 0
	// Rotate without a modulo per warp: [start, n) then [0, start).
	for i := range warps[start:] {
		if w := &warps[start+i]; w.HasWork {
			out = append(out, w.Slot)
		}
	}
	for i := range warps[:start] {
		if w := &warps[i]; w.HasWork {
			out = append(out, w.Slot)
		}
	}
	return out
}

func (s *lrr) Issued(slot int) { s.last = slot }

// gto is greedy-then-oldest: keep issuing from the same warp while it is
// ready; otherwise the oldest (lowest dynamic id) ready warp.
type gto struct {
	last int
	rank readyRank
}

func (s *gto) Order(warps []WarpInfo, out []int) []int {
	return greedyThenOldest(warps, out, s.last, false)
}

func (s *gto) Issued(slot int)               { s.last = slot }
func (s *gto) Sync(info WarpInfo)            { s.rank.sync(info) }
func (s *gto) OrderReady(out []int) []int    { return s.rank.order(s.last, out) }
func (s *gto) AuditReady(w []WarpInfo) error { return s.rank.audit(w) }

// greedyThenOldest ranks warps by dynamic id (and category when
// byCategory), hoisting the previously issued warp to the front of its
// priority class. It is the legacy sort-based ranking, kept as the
// reference implementation for the incremental ready ranking (and as
// the active path under Config.Reference).
func greedyThenOldest(warps []WarpInfo, out []int, last int, byCategory bool) []int {
	idx := make([]int, 0, len(warps))
	for i := range warps {
		if warps[i].HasWork {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := &warps[idx[a]], &warps[idx[b]]
		if byCategory && wa.Category != wb.Category {
			return wa.Category < wb.Category
		}
		ga, gb := wa.Slot == last, wb.Slot == last
		if ga != gb {
			return ga
		}
		return wa.DynID < wb.DynID
	})
	for _, i := range idx {
		out = append(out, warps[i].Slot)
	}
	return out
}

// twoLevel divides warps into fetch groups and round-robins within the
// active group, switching groups when the active group's warps are all
// blocked on long-latency operations (Narasiman et al., MICRO-44).
type twoLevel struct {
	group  int
	active int
	last   int // slot number of the last issued warp; -1 before any issue
}

func (s *twoLevel) Order(warps []WarpInfo, out []int) []int {
	n := len(warps)
	if n == 0 {
		return out
	}
	groups := (n + s.group - 1) / s.group
	if s.active >= groups {
		s.active = 0
	}
	// Demote the active group if none of its warps can make progress
	// without waiting on memory.
	if !s.groupRunnable(warps, s.active) {
		for g := 1; g < groups; g++ {
			cand := (s.active + g) % groups
			if s.groupRunnable(warps, cand) {
				s.active = cand
				break
			}
		}
	}
	// Like lrr, the rotation resumes after the *position* of the last
	// issued warp, not its slot number.
	p := posOfSlot(warps, s.last)
	for g := 0; g < groups; g++ {
		gi := (s.active + g) % groups
		lo, hi := gi*s.group, min((gi+1)*s.group, n)
		for i := 0; i < hi-lo; i++ {
			w := &warps[lo+(p+1+i)%(hi-lo)]
			if w.HasWork {
				out = append(out, w.Slot)
			}
		}
	}
	return out
}

func (s *twoLevel) groupRunnable(warps []WarpInfo, g int) bool {
	lo, hi := g*s.group, min((g+1)*s.group, len(warps))
	for i := lo; i < hi; i++ {
		if warps[i].HasWork && !warps[i].WaitingLong {
			return true
		}
	}
	return false
}

func (s *twoLevel) Issued(slot int) { s.last = slot }

// owf is the paper's Owner-Warp-First policy (§IV-A): shared-owner warps
// first, then unshared warps, then shared non-owner warps; within that
// order it behaves greedy-then-oldest on dynamic warp ids, which is why
// OWF degenerates to GTO-like behaviour when no blocks share resources
// (observed for Set-3 in the paper's Fig. 12).
type owf struct {
	last int
	rank readyRank
}

func (s *owf) Order(warps []WarpInfo, out []int) []int {
	return greedyThenOldest(warps, out, s.last, true)
}

func (s *owf) Issued(slot int)               { s.last = slot }
func (s *owf) Sync(info WarpInfo)            { s.rank.sync(info) }
func (s *owf) OrderReady(out []int) []int    { return s.rank.order(s.last, out) }
func (s *owf) AuditReady(w []WarpInfo) error { return s.rank.audit(w) }

// readyEntry is one ready (HasWork) warp in the maintained ranking.
type readyEntry struct {
	slot int
	dyn  int64
	cat  core.Category
}

// readyRank maintains the ready warps of one scheduler as a list kept
// sorted by (category when byCategory, then dynamic id). Dynamic ids
// are unique within an SM, so the order is total and the list equals
// the legacy sort's output for the same views. sync is O(n) memmove in
// the worst case over n ≤ warps-per-scheduler (≤ 48) entries and
// allocation-free once the backing array has grown; order is a single
// walk with the greedy slot hoisted to the head of its priority class.
type readyRank struct {
	byCategory bool
	entries    []readyEntry
}

// less orders two entries by the legacy comparator, minus the greedy
// hoist (which order applies at read time).
func (r *readyRank) less(a, b *readyEntry) bool {
	if r.byCategory && a.cat != b.cat {
		return a.cat < b.cat
	}
	return a.dyn < b.dyn
}

// sync installs one warp's current view: ready warps are inserted at
// (or moved to) their sorted position, non-ready warps are removed.
func (r *readyRank) sync(info WarpInfo) {
	at := -1
	for i := range r.entries {
		if r.entries[i].slot == info.Slot {
			at = i
			break
		}
	}
	if !info.HasWork {
		if at >= 0 {
			r.entries = append(r.entries[:at], r.entries[at+1:]...)
		}
		return
	}
	e := readyEntry{slot: info.Slot, dyn: info.DynID, cat: info.Category}
	if at >= 0 {
		if r.entries[at].dyn == e.dyn && r.entries[at].cat == e.cat {
			return // position unchanged
		}
		r.entries = append(r.entries[:at], r.entries[at+1:]...)
	}
	// Insert at the sorted position.
	pos := sort.Search(len(r.entries), func(i int) bool {
		return r.less(&e, &r.entries[i])
	})
	r.entries = append(r.entries, readyEntry{})
	copy(r.entries[pos+1:], r.entries[pos:])
	r.entries[pos] = e
}

// order appends the ranking to out: the sorted entries, with the last-
// issued slot (if still ready) hoisted to the front of its priority
// class — the whole list for GTO, its category segment for OWF.
func (r *readyRank) order(last int, out []int) []int {
	hi := -1
	for i := range r.entries {
		if r.entries[i].slot == last {
			hi = i
			break
		}
	}
	if hi < 0 {
		for i := range r.entries {
			out = append(out, r.entries[i].slot)
		}
		return out
	}
	i := 0
	if r.byCategory {
		hcat := r.entries[hi].cat
		for ; i < len(r.entries) && r.entries[i].cat < hcat; i++ {
			out = append(out, r.entries[i].slot)
		}
	}
	out = append(out, r.entries[hi].slot)
	for ; i < len(r.entries); i++ {
		if i == hi {
			continue
		}
		out = append(out, r.entries[i].slot)
	}
	return out
}

// audit verifies the maintained list against a from-scratch view:
// exactly the HasWork slots, each with the view's key, in sorted order.
func (r *readyRank) audit(warps []WarpInfo) error {
	want := make([]readyEntry, 0, len(warps))
	for i := range warps {
		if warps[i].HasWork {
			want = append(want, readyEntry{slot: warps[i].Slot, dyn: warps[i].DynID, cat: warps[i].Category})
		}
	}
	sort.Slice(want, func(a, b int) bool { return r.less(&want[a], &want[b]) })
	if len(want) != len(r.entries) {
		return fmt.Errorf("ready set has %d entries, recompute has %d", len(r.entries), len(want))
	}
	for i := range want {
		if want[i] != r.entries[i] {
			return fmt.Errorf("ready set entry %d is %+v, recompute says %+v", i, r.entries[i], want[i])
		}
	}
	return nil
}
