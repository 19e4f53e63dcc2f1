// Package sched implements the warp scheduling policies evaluated in the
// paper: LRR (the GPGPU-Sim baseline), GTO, a two-level scheduler in the
// style of Narasiman et al., and the paper's Owner-Warp-First (OWF).
//
// A scheduler ranks the warp slots it manages each cycle; the SM issue
// stage walks the ranking and issues the first warp that passes all
// hazard checks. This mirrors GPGPU-Sim's ordered-warp scheduler design.
//
// The issue stage does not materialise the ranking: Begin describes it
// as a few runs of indices (a Ranking), so the SM can walk it over its
// own per-index bitmasks and skip whole runs of blocked warps at once.
// Order, the whole ranking as a slice of slots, is the reference
// engine's path and the tests' oracle.
//
// GTO and OWF additionally implement Incremental: instead of re-sorting
// every warp every cycle, the SM pushes per-warp view changes through
// Sync as they happen, and their ranking is runs of the maintained ready
// list. The incremental ranking is proven output-identical to the legacy
// sort-based Order (see the property tests) and allocation-free in
// steady state.
package sched

import (
	"cmp"
	"fmt"
	"slices"
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
}

// MaxWarps is the most indices a ranking covers: the most warp slots a
// valid configuration gives one scheduler.
const MaxWarps = config.MaxSchedWarps

// Range is the run of indices [Lo, Hi), walked in increasing order.
type Range struct{ Lo, Hi int32 }

// Ranking is one cycle's ranking as runs of indices, best run first.
// An index is a position in the views Begin was given, or, for an
// Incremental scheduler, a position in its ReadyList (Slot maps it to a
// warp slot). A view run may hold warps without work, which the
// ranking omits; a ready-list run holds none. It is a plain value the
// caller owns and reuses; Begin overwrites it. A ranking has at most two
// runs per index (two-level fetch groups of one warp each).
type Ranking struct {
	runs [2 * MaxWarps]Range
	n    int
}

// Ranges returns the runs, best first.
func (r *Ranking) Ranges() []Range { return r.runs[:r.n] }

func (r *Ranking) add(lo, hi int) {
	if lo < hi {
		r.runs[r.n] = Range{int32(lo), int32(hi)}
		r.n++
	}
}

// Scheduler ranks warps for issue.
type Scheduler interface {
	// Begin writes this cycle's ranking of warps into r. It is called
	// once per ranking, exactly where Order would be, because ranking
	// can move policy state (two-level demotes a blocked fetch group
	// here; see RanksEveryCycle). An Incremental scheduler ranks its
	// maintained ready list, which Sync keeps equal to warps.
	Begin(warps []WarpInfo, r *Ranking)
	// Order writes the whole ranking Begin describes, as slots of warps
	// with work, into out and returns it: the reference engine's ranking
	// and the tests' oracle.
	Order(warps []WarpInfo, out []int) []int
	// Issued informs the scheduler that slot, at position pos of the
	// views it ranks, issued this cycle.
	Issued(slot, pos int)
}

// Incremental is implemented by schedulers that maintain a ReadyList
// instead of re-ranking the full warp set every cycle. The caller
// pushes per-warp view changes through the list's Sync on the events
// that can change them (a warp finishing or parking at a barrier,
// barrier release, ownership transfer, block launch); Begin then ranks
// the maintained list without scanning, sorting, or allocating. For any
// sequence of Sync calls, the ranking equals Order applied to the
// synced views.
type Incremental interface {
	Scheduler
	Ready() *ReadyList
}

// RanksEveryCycle reports whether s's Begin moves policy state, so that
// it must run every cycle, as Order does in the reference engine, even
// when the caller will ask no warp. Only two-level's does: it demotes a
// fetch group none of whose warps can make progress. Every other
// policy's Begin only describes the ranking, which a cycle that asks no
// warp does not need.
func RanksEveryCycle(s Scheduler) bool {
	_, ok := s.(*twoLevel)
	return ok
}

// New returns a scheduler implementing the given policy. groupSize and
// waitingLong are used by the two-level policy only: waitingLong(slot)
// reports whether the warp in that slot has its next instruction
// waiting on an outstanding global-memory load, and is read live at
// each ranking, so no warp view carries it.
func New(policy config.SchedPolicy, groupSize int, waitingLong func(slot int) bool) Scheduler {
	switch policy {
	case config.SchedGTO:
		return &gto{last: -1}
	case config.SchedTwoLevel:
		if groupSize <= 0 {
			groupSize = 8
		}
		return &twoLevel{group: groupSize, last: -1, lastPos: -1, waitingLong: waitingLong}
	case config.SchedOWF:
		return &owf{last: -1, rank: ReadyList{byCategory: true}}
	default:
		return &lrr{last: -1, lastPos: -1}
	}
}

// lrr is loose round-robin: each cycle the search starts one past the
// last issued warp. last records the issued warp's *slot number*; Begin
// resolves it to a position in the info slice, because with multiple
// schedulers the slots a scheduler manages are interleaved and slot
// numbers are not positions.
type lrr struct {
	last    int      // slot number of the last issued warp; -1 before any issue
	lastPos int      // last's position, as Issued reported it (-1: unknown)
	rank    *Ranking // Order's, made at its first call (only the reference engine orders)
}

// posOfSlot returns the position of the warp with the given slot number
// in the info slice, or -1 when absent. hint is where Issued said it
// was: views keep their positions, so that is checked before any scan
// (a restored scheduler knows only the slot).
func posOfSlot(warps []WarpInfo, slot, hint int) int {
	if slot < 0 {
		return -1
	}
	if hint >= 0 && hint < len(warps) && warps[hint].Slot == slot {
		return hint
	}
	for i := range warps {
		if warps[i].Slot == slot {
			return i
		}
	}
	return -1
}

// rotate writes views split into fetch groups of size group (the last
// may be shorter), from group first (< the group count) on, each
// rotated to start at offset off (taken modulo the group's length): two
// runs per group. One group whose length off does not reach costs no
// division, which LRR's rotation, run every scheduler-cycle, relies on.
func (r *Ranking) rotate(n, group, first, off int) {
	r.n = 0
	if n == 0 {
		return
	}
	groups := 1
	if n > group {
		groups = (n + group - 1) / group
	}
	for g := range groups {
		gi := first + g
		if gi >= groups {
			gi -= groups
		}
		lo := gi * group
		hi := min(lo+group, n)
		start := off
		if start >= hi-lo {
			start %= hi - lo
		}
		r.add(lo+start, hi)
		r.add(lo, lo+start)
	}
}

// views appends the slots of r's warps with work, in ranking order.
func (r *Ranking) views(warps []WarpInfo, out []int) []int {
	for _, rg := range r.Ranges() {
		for i := rg.Lo; i < rg.Hi; i++ {
			if warps[i].HasWork {
				out = append(out, warps[i].Slot)
			}
		}
	}
	return out
}

// Begin rotates the whole warp set as one group, starting one past the
// last issued warp (-1, not found, resumes at 0).
func (s *lrr) Begin(warps []WarpInfo, r *Ranking) {
	s.lastPos = posOfSlot(warps, s.last, s.lastPos)
	r.rotate(len(warps), len(warps), 0, s.lastPos+1)
}

func (s *lrr) Order(warps []WarpInfo, out []int) []int {
	if s.rank == nil {
		s.rank = new(Ranking)
	}
	s.Begin(warps, s.rank)
	return s.rank.views(warps, out)
}

func (s *lrr) Issued(slot, pos int) { s.last, s.lastPos = slot, pos }

// gto is greedy-then-oldest: keep issuing from the same warp while it is
// ready; otherwise the oldest (lowest dynamic id) ready warp.
type gto struct {
	last int
	rank ReadyList
	idx  []int // Order's scratch
}

func (s *gto) Order(warps []WarpInfo, out []int) []int {
	out, s.idx = greedyThenOldest(warps, out, s.idx, s.last, false)
	return out
}

func (s *gto) Begin(_ []WarpInfo, r *Ranking) { s.rank.begin(s.last, r) }
func (s *gto) Issued(slot, _ int)             { s.last = slot }
func (s *gto) Ready() *ReadyList              { return &s.rank }

// greedyThenOldest ranks warps by dynamic id (and category when
// byCategory), hoisting the previously issued warp to the front of its
// priority class. It is the legacy sort-based ranking, kept as the
// reference implementation for the incremental ready ranking (and as
// the active path under Config.Reference). idx is scratch, returned
// for the next call. Dynamic ids are unique within an SM, so the order
// is total and any correct sort yields it.
func greedyThenOldest(warps []WarpInfo, out, idx []int, last int, byCategory bool) ([]int, []int) {
	idx = idx[:0]
	for i := range warps {
		if warps[i].HasWork {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		wa, wb := &warps[a], &warps[b]
		if byCategory && wa.Category != wb.Category {
			return cmp.Compare(wa.Category, wb.Category)
		}
		if ga, gb := wa.Slot == last, wb.Slot == last; ga != gb {
			if ga {
				return -1
			}
			return 1
		}
		return cmp.Compare(wa.DynID, wb.DynID)
	})
	for _, i := range idx {
		out = append(out, warps[i].Slot)
	}
	return out, idx
}

// twoLevel divides warps into fetch groups and round-robins within the
// active group, switching groups when the active group's warps are all
// blocked on long-latency operations (Narasiman et al., MICRO-44).
type twoLevel struct {
	group       int
	active      int
	last        int // slot number of the last issued warp; -1 before any issue
	lastPos     int // last's position, as Issued reported it (-1: unknown)
	waitingLong func(slot int) bool
	rank        *Ranking // Order's, made at its first call (only the reference engine orders)
}

// Begin demotes the active group if none of its warps can make progress
// without waiting on memory, then walks the groups from the active one,
// each rotated like lrr: resuming after the *position* of the last
// issued warp, not its slot number.
func (s *twoLevel) Begin(warps []WarpInfo, r *Ranking) {
	if groups := (len(warps) + s.group - 1) / s.group; groups > 0 {
		if s.active >= groups {
			s.active = 0
		}
		if !s.groupRunnable(warps, s.active) {
			for g := 1; g < groups; g++ {
				cand := (s.active + g) % groups
				if s.groupRunnable(warps, cand) {
					s.active = cand
					break
				}
			}
		}
	}
	s.lastPos = posOfSlot(warps, s.last, s.lastPos)
	r.rotate(len(warps), s.group, s.active, s.lastPos+1)
}

func (s *twoLevel) Order(warps []WarpInfo, out []int) []int {
	if s.rank == nil {
		s.rank = new(Ranking)
	}
	s.Begin(warps, s.rank)
	return s.rank.views(warps, out)
}

func (s *twoLevel) groupRunnable(warps []WarpInfo, g int) bool {
	lo, hi := g*s.group, min((g+1)*s.group, len(warps))
	for i := lo; i < hi; i++ {
		if warps[i].HasWork && !s.waitingLong(warps[i].Slot) {
			return true
		}
	}
	return false
}

func (s *twoLevel) Issued(slot, pos int) { s.last, s.lastPos = slot, pos }

// owf is the paper's Owner-Warp-First policy (§IV-A): shared-owner warps
// first, then unshared warps, then shared non-owner warps; within that
// order it behaves greedy-then-oldest on dynamic warp ids, which is why
// OWF degenerates to GTO-like behaviour when no blocks share resources
// (observed for Set-3 in the paper's Fig. 12).
type owf struct {
	last int
	rank ReadyList
	idx  []int // Order's scratch
}

func (s *owf) Order(warps []WarpInfo, out []int) []int {
	out, s.idx = greedyThenOldest(warps, out, s.idx, s.last, true)
	return out
}

func (s *owf) Begin(_ []WarpInfo, r *Ranking) { s.rank.begin(s.last, r) }
func (s *owf) Issued(slot, _ int)             { s.last = slot }
func (s *owf) Ready() *ReadyList              { return &s.rank }

// readyEntry is one ready (HasWork) warp in the maintained ranking.
type readyEntry struct {
	dyn  int64
	slot int32
	cat  core.Category
}

// ReadyList maintains the ready warps of one scheduler as a list kept
// sorted by (category when byCategory, then dynamic id). Dynamic ids
// are unique within an SM, so the order is total and the list equals
// the legacy sort's output for the same views. at maps a slot to its
// index in the list (-1 when absent) and cats counts the entries of
// each category. Sync is O(n) memmove and renumbering in the worst case
// over n ≤ 64 entries and allocation-free once the arrays have grown;
// begin looks the greedy slot up in at and hoists it to the head of its
// priority class, which starts after the entries of the categories
// ahead of it.
type ReadyList struct {
	byCategory bool
	entries    []readyEntry
	at         []int32
	cats       [core.CatNonOwner + 1]int32
}

// less orders two entries by the legacy comparator, minus the greedy
// hoist (which begin applies).
func (r *ReadyList) less(a, b *readyEntry) bool {
	if r.byCategory && a.cat != b.cat {
		return a.cat < b.cat
	}
	return a.dyn < b.dyn
}

// Len is the list's length.
func (r *ReadyList) Len() int { return len(r.entries) }

// Slot is the warp slot at index i.
func (r *ReadyList) Slot(i int) int { return int(r.entries[i].slot) }

// Index returns slot's index in the list, -1 when it is not on it.
func (r *ReadyList) Index(slot int) int {
	if slot < 0 || slot >= len(r.at) {
		return -1
	}
	return int(r.at[slot])
}

// renumber records the index of every entry from index from on.
func (r *ReadyList) renumber(from int) {
	for i := from; i < len(r.entries); i++ {
		r.at[r.entries[i].slot] = int32(i)
	}
}

// Sync installs one warp's current view: a ready warp is inserted at
// (or moved to) its sorted position, a warp without work is removed. It
// reports how the list moved: the index the warp's entry left (every
// later entry moved down one), then the index it entered (every entry
// from there on moved up one), each -1 when it did not. A caller keeping
// state per index shifts it the same way.
func (r *ReadyList) Sync(info WarpInfo) (removed, inserted int) {
	removed, inserted = -1, -1
	for info.Slot >= len(r.at) {
		if len(r.at) == cap(r.at) { // grown once for the slots of a few schedulers
			r.at = slices.Grow(r.at, max(info.Slot+1, 2*MaxWarps)-len(r.at))
		}
		r.at = append(r.at, -1)
	}
	e := readyEntry{slot: int32(info.Slot), dyn: info.DynID, cat: info.Category}
	if at := int(r.at[info.Slot]); at >= 0 {
		if info.HasWork && r.entries[at] == e {
			return -1, -1 // position unchanged
		}
		r.cats[r.entries[at].cat]--
		r.entries = append(r.entries[:at], r.entries[at+1:]...)
		r.at[info.Slot] = -1
		r.renumber(at)
		removed = at
	}
	if !info.HasWork {
		return removed, -1
	}
	// Insert at the sorted position.
	pos := sort.Search(len(r.entries), func(i int) bool {
		return r.less(&e, &r.entries[i])
	})
	r.entries = append(r.entries, readyEntry{})
	copy(r.entries[pos+1:], r.entries[pos:])
	r.entries[pos] = e
	r.cats[e.cat]++
	r.renumber(pos)
	return removed, pos
}

// begin writes the ranking: the sorted entries, with the last-issued
// slot (if still ready) hoisted to the front of its priority class —
// the whole list for GTO, its category segment for OWF. That is at most
// four runs: the classes ahead, the hoisted entry, the rest of its
// class before it, and everything after it.
func (r *ReadyList) begin(last int, rk *Ranking) {
	rk.n = 0
	n := len(r.entries)
	h := r.Index(last)
	if h < 0 {
		rk.add(0, n)
		return
	}
	front := 0
	if r.byCategory {
		for c := range r.entries[h].cat {
			front += int(r.cats[c])
		}
	}
	rk.add(0, front)
	rk.add(h, h+1)
	rk.add(front, h)
	rk.add(h+1, n)
}

// Audit verifies the maintained list against a from-scratch view:
// exactly the HasWork slots, each with the view's key, in sorted order,
// each at the index at records for it, and the category counts. The
// auditor's from-scratch recompute calls it. Read-only.
func (r *ReadyList) Audit(warps []WarpInfo) error {
	want := make([]readyEntry, 0, len(warps))
	for i := range warps {
		if warps[i].HasWork {
			want = append(want, readyEntry{slot: int32(warps[i].Slot), dyn: warps[i].DynID, cat: warps[i].Category})
		}
	}
	sort.Slice(want, func(a, b int) bool { return r.less(&want[a], &want[b]) })
	if len(want) != len(r.entries) {
		return fmt.Errorf("ready set has %d entries, recompute has %d", len(r.entries), len(want))
	}
	var cats [len(r.cats)]int32
	for i := range want {
		if want[i] != r.entries[i] {
			return fmt.Errorf("ready set entry %d is %+v, recompute says %+v", i, r.entries[i], want[i])
		}
		cats[want[i].cat]++
	}
	if cats != r.cats {
		return fmt.Errorf("ready set counts %v entries per category, recompute says %v", r.cats, cats)
	}
	listed := 0
	for slot, i := range r.at {
		if i < 0 {
			continue
		}
		if listed++; int(i) >= len(r.entries) || int(r.entries[i].slot) != slot {
			return fmt.Errorf("ready set index table puts slot %d at entry %d, which is not it", slot, i)
		}
	}
	if listed != len(r.entries) {
		return fmt.Errorf("ready set index table lists %d slots, the set has %d entries", listed, len(r.entries))
	}
	return nil
}
