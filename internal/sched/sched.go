// Package sched implements the warp scheduling policies evaluated in the
// paper: LRR (the GPGPU-Sim baseline), GTO, a two-level scheduler in the
// style of Narasiman et al., and the paper's Owner-Warp-First (OWF).
//
// A scheduler ranks the warp slots it manages each cycle; the SM issue
// stage walks the ranking and issues the first warp that passes all
// hazard checks. This mirrors GPGPU-Sim's ordered-warp scheduler design.
//
// The walk usually stops within the first few warps, so the issue stage
// does not materialise the ranking: Begin positions a Cursor, and Next
// computes one more slot of the ranking per call. Order, the whole
// ranking as a slice, is the reference engine's path and the tests'
// oracle.
//
// GTO and OWF additionally implement Incremental: instead of re-sorting
// every warp every cycle, the SM pushes per-warp view changes through
// Sync as they happen, and their cursor walks the maintained ranking.
// The incremental ranking is proven output-identical to the legacy
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

// Scheduler ranks warps for issue.
type Scheduler interface {
	// Begin starts this cycle's ranking of warps in c: c.Next then
	// yields the slots to consider, in priority order, omitting warps
	// with HasWork == false. It is called once per ranking, exactly where
	// Order would be, because ranking can move policy state (two-level
	// demotes a blocked fetch group here). An Incremental scheduler ranks
	// its maintained ready set, which Sync keeps equal to warps.
	Begin(warps []WarpInfo, c *Cursor)
	// Order writes the whole ranking Begin would walk into out and
	// returns it: the reference engine's ranking and the tests' oracle.
	Order(warps []WarpInfo, out []int) []int
	// Issued informs the scheduler that slot issued this cycle.
	Issued(slot int)
}

// Incremental is implemented by schedulers that maintain an internal
// ready structure instead of re-ranking the full warp set every cycle.
// The caller pushes per-warp view changes through Sync on the events
// that can change them (a warp finishing or parking at a barrier,
// barrier release, ownership transfer, block launch); Begin then walks
// the maintained ranking without scanning, sorting, or allocating. For
// any sequence of Sync calls, the walk equals Order applied to the
// synced views.
type Incremental interface {
	Scheduler
	// Sync replaces the scheduler's view of info.Slot.
	Sync(info WarpInfo)
	// AuditReady cross-checks the internal ready structure against the
	// given warp views (the auditor's from-scratch recompute): membership
	// must equal the HasWork slots and the order must match the legacy
	// ranking. Read-only.
	AuditReady(warps []WarpInfo) error
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
		return &twoLevel{group: groupSize, last: -1, waitingLong: waitingLong}
	case config.SchedOWF:
		return &owf{last: -1, rank: readyRank{byCategory: true}}
	default:
		return &lrr{last: -1}
	}
}

// lrr is loose round-robin: each cycle the search starts one past the
// last issued warp. last records the issued warp's *slot number*; Begin
// resolves it to a position in the info slice, because with multiple
// schedulers the slots a scheduler manages are interleaved and slot
// numbers are not positions.
type lrr struct {
	last int    // slot number of the last issued warp; -1 before any issue
	cur  Cursor // Order's walk, kept so its rotation buffer is reused
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

// Begin rotates the whole warp set as one group, starting one past the
// last issued warp (-1, not found, resumes at 0).
func (s *lrr) Begin(warps []WarpInfo, c *Cursor) {
	c.rotate(warps, len(warps), 0, posOfSlot(warps, s.last)+1)
}

func (s *lrr) Order(warps []WarpInfo, out []int) []int {
	s.Begin(warps, &s.cur)
	return s.cur.drain(out)
}

func (s *lrr) Issued(slot int) { s.last = slot }

// gto is greedy-then-oldest: keep issuing from the same warp while it is
// ready; otherwise the oldest (lowest dynamic id) ready warp.
type gto struct {
	last int
	rank readyRank
	idx  []int // Order's scratch
}

func (s *gto) Order(warps []WarpInfo, out []int) []int {
	out, s.idx = greedyThenOldest(warps, out, s.idx, s.last, false)
	return out
}

func (s *gto) Begin(_ []WarpInfo, c *Cursor) { s.rank.begin(s.last, c) }
func (s *gto) Issued(slot int)               { s.last = slot }
func (s *gto) Sync(info WarpInfo)            { s.rank.sync(info) }
func (s *gto) AuditReady(w []WarpInfo) error { return s.rank.audit(w) }

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
	waitingLong func(slot int) bool
	cur         Cursor // Order's walk, kept so its rotation buffer is reused
}

// Begin demotes the active group if none of its warps can make progress
// without waiting on memory, then walks the groups from the active one,
// each rotated like lrr: resuming after the *position* of the last
// issued warp, not its slot number.
func (s *twoLevel) Begin(warps []WarpInfo, c *Cursor) {
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
	c.rotate(warps, s.group, s.active, posOfSlot(warps, s.last)+1)
}

func (s *twoLevel) Order(warps []WarpInfo, out []int) []int {
	s.Begin(warps, &s.cur)
	return s.cur.drain(out)
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

func (s *twoLevel) Issued(slot int) { s.last = slot }

// owf is the paper's Owner-Warp-First policy (§IV-A): shared-owner warps
// first, then unshared warps, then shared non-owner warps; within that
// order it behaves greedy-then-oldest on dynamic warp ids, which is why
// OWF degenerates to GTO-like behaviour when no blocks share resources
// (observed for Set-3 in the paper's Fig. 12).
type owf struct {
	last int
	rank readyRank
	idx  []int // Order's scratch
}

func (s *owf) Order(warps []WarpInfo, out []int) []int {
	out, s.idx = greedyThenOldest(warps, out, s.idx, s.last, true)
	return out
}

func (s *owf) Begin(_ []WarpInfo, c *Cursor) { s.rank.begin(s.last, c) }
func (s *owf) Issued(slot int)               { s.last = slot }
func (s *owf) Sync(info WarpInfo)            { s.rank.sync(info) }
func (s *owf) AuditReady(w []WarpInfo) error { return s.rank.audit(w) }

// readyEntry is one ready (HasWork) warp in the maintained ranking
// (16 bytes; a rotation's collected rest reuses it for its slots).
type readyEntry struct {
	dyn  int64
	slot int32
	cat  core.Category
}

// readyRank maintains the ready warps of one scheduler as a list kept
// sorted by (category when byCategory, then dynamic id). Dynamic ids
// are unique within an SM, so the order is total and the list equals
// the legacy sort's output for the same views. sync is O(n) memmove in
// the worst case over n ≤ warps-per-scheduler (≤ 48) entries and
// allocation-free once the backing array has grown; begin finds the
// greedy slot, and the cursor hoists it to the head of its priority
// class as it walks.
type readyRank struct {
	byCategory bool
	entries    []readyEntry
}

// less orders two entries by the legacy comparator, minus the greedy
// hoist (which the cursor applies as it walks).
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
		if int(r.entries[i].slot) == info.Slot {
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
	e := readyEntry{slot: int32(info.Slot), dyn: info.DynID, cat: info.Category}
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

// begin starts c on the ranking: the sorted entries, with the last-
// issued slot (if still ready) hoisted to the front of its priority
// class — the whole list for GTO, its category segment for OWF.
func (r *readyRank) begin(last int, c *Cursor) {
	// Field by field: a struct literal would copy the whole Cursor.
	c.ranked, c.entries, c.i, c.hoist, c.front = true, r.entries, 0, -1, -1
	for i := range r.entries {
		if int(r.entries[i].slot) == last {
			c.hoist, c.front = i, 0
			if r.byCategory {
				for r.entries[c.front].cat < r.entries[i].cat {
					c.front++
				}
			}
			break
		}
	}
	c.rankedLim()
}

// audit verifies the maintained list against a from-scratch view:
// exactly the HasWork slots, each with the view's key, in sorted order.
func (r *readyRank) audit(warps []WarpInfo) error {
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
	for i := range want {
		if want[i] != r.entries[i] {
			return fmt.Errorf("ready set entry %d is %+v, recompute says %+v", i, r.entries[i], want[i])
		}
	}
	return nil
}

// Cursor walks one ranking, best first, computing slots only as the
// issue stage asks for them. It is a plain value the caller owns and
// reuses; Begin overwrites it. It is one concrete type for every policy,
// and Next's common case is inlined into the caller: no indirect call,
// and no allocation once a rotation's buffer has grown.
type Cursor struct {
	// entries[i:end] is the run Next serves without a call: a stretch of
	// a ready list in order (GTO, OWF), or the rest of a rotation (LRR,
	// two-level).
	entries []readyEntry
	i, end  int
	ranked  bool

	// Ready list: entries[hoist] (if hoist >= 0) is walked first when the
	// walk reaches index front (if front >= 0), and skipped at its own
	// index; end stops each run short of both.
	hoist, front int

	// Rotation: views in fetch groups of size group, visited from group
	// gi+1 on, each walked as two runs from offset off within it,
	// [start, hi) then [lo, start); [pos, lim) is what is left of the
	// current run. Most walks stop at the first ready warp, so that one
	// is found by scanning; asked for a second, the cursor collects the
	// rest of the rotation into buf in one pass, as a whole ranking
	// would, and serves it as a run.
	views      []WarpInfo
	group, off int
	gi         int // group being walked
	total      int // positions in the groups not yet entered
	lo, start  int
	pos, lim   int
	scanned    bool // the first ready warp was found by scanning
	buf        []readyEntry
}

// rotate starts c on views split into groups of size group (the last
// may be shorter), from group first, each rotated to start at offset
// off (taken modulo the group's length).
func (c *Cursor) rotate(views []WarpInfo, group, first, off int) {
	if cap(c.buf) < len(views) {
		c.buf = make([]readyEntry, 0, len(views))
	}
	c.ranked, c.views, c.group, c.off = false, views, group, off
	c.i, c.end, c.gi, c.total, c.scanned = 0, 0, first-1, len(views), false
	c.lo, c.start, c.pos, c.lim = 0, 0, 0, 0
}

// Next returns the next slot of the ranking, or -1 when it is exhausted.
func (c *Cursor) Next() int {
	if c.i < c.end {
		c.i++
		return int(c.entries[c.i-1].slot)
	}
	return c.next()
}

// next is Next at the end of a run: it steps a ready list past the
// hoisted entry, or takes a rotation's first ready warp, or the rest.
func (c *Cursor) next() int {
	if c.ranked {
		slot := -1
		switch {
		case c.i == c.front:
			c.front = -1
			slot = int(c.entries[c.hoist].slot)
		case c.i == c.hoist:
			c.i++ // walked already, hoisted
			fallthrough
		default:
			if c.i < len(c.entries) {
				slot = int(c.entries[c.i].slot)
				c.i++
			}
		}
		c.rankedLim()
		return slot
	}
	if !c.scanned {
		c.scanned = true
		for {
			for pos := c.pos; pos < c.lim; pos++ {
				if w := &c.views[pos]; w.HasWork {
					c.pos = pos + 1
					return w.Slot
				}
			}
			if c.pos = c.lim; !c.nextRun() {
				return -1
			}
		}
	}
	// The rest fits: rotate sized buf to the views. Only slot is
	// written; nothing reads the other fields of a collected entry. Once
	// the rest has been walked, this finds nothing left.
	buf, n, views, pos, lim := c.buf[:cap(c.buf)], 0, c.views, c.pos, c.lim
	for {
		for ; pos < lim; pos++ {
			if w := &views[pos]; w.HasWork {
				buf[n].slot = int32(w.Slot)
				n++
			}
		}
		if c.pos = pos; !c.nextRun() {
			break
		}
		pos, lim = c.pos, c.lim
	}
	if n == 0 {
		return -1
	}
	c.entries, c.i, c.end = buf[:n], 1, n
	return int(buf[0].slot)
}

// nextRun starts a rotation's next run once the current one is walked
// (pos == lim) and reports whether there is one.
func (c *Cursor) nextRun() bool {
	if c.lim > c.start && c.start > c.lo { // [start, hi) done: wrap to [lo, start)
		c.pos, c.lim = c.lo, c.start
		return true
	}
	if c.total == 0 {
		return false
	}
	if c.gi++; c.gi*c.group >= len(c.views) {
		c.gi = 0
	}
	c.lo = c.gi * c.group
	hi := min(c.lo+c.group, len(c.views))
	c.total -= hi - c.lo
	// off mod the group's length, without a division: off is at most
	// one past a position in views, so for LRR's one group this
	// subtracts at most once.
	o := c.off
	for o >= hi-c.lo {
		o -= hi - c.lo
	}
	c.start = c.lo + o
	c.pos, c.lim = c.start, hi
	return true
}

// rankedLim ends the ready list's current run at the next position
// where the walk departs from the list's order.
func (c *Cursor) rankedLim() {
	c.end = len(c.entries)
	if c.front >= 0 {
		c.end = c.front
	} else if c.hoist >= c.i {
		c.end = c.hoist
	}
}

// drain appends the rest of the walk to out: Order for the policies
// whose cursor is their only ranking, so each rotation exists once.
func (c *Cursor) drain(out []int) []int {
	for slot := c.Next(); slot >= 0; slot = c.Next() {
		out = append(out, slot)
	}
	return out
}
