package sched

import (
	"math/rand"
	"slices"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
)

// waits is the slot → waiting-on-memory map the two-level policy reads
// live through New's waitingLong function, as it reads an SM's load
// state: no warp view carries it.
type waits map[int]bool

func (w waits) long(slot int) bool { return w[slot] }

// randViews builds a randomized warp set with interleaved (non-contiguous)
// slot numbers, unique dynamic ids, mixed categories and some warps
// waiting on memory (refilling wait) — the shape a scheduler actually
// sees when an SM splits its warps across schedulers.
func randViews(rng *rand.Rand, n int, nextDyn *int64, wait waits) []WarpInfo {
	clear(wait)
	ws := make([]WarpInfo, n)
	for i := range ws {
		ws[i] = WarpInfo{
			Slot:     i*2 + 1, // interleaved: slot numbers are not positions
			HasWork:  rng.Intn(4) != 0,
			DynID:    *nextDyn,
			Category: core.Category(rng.Intn(3)),
		}
		wait[ws[i].Slot] = rng.Intn(2) == 0
		*nextDyn++
	}
	return ws
}

// mutate applies one random view or wait change and returns the
// warp's view (unchanged when only its wait flipped).
func mutate(rng *rand.Rand, ws []WarpInfo, nextDyn *int64, wait waits) WarpInfo {
	i := rng.Intn(len(ws))
	switch rng.Intn(4) {
	case 0:
		ws[i].HasWork = !ws[i].HasWork
	case 1:
		ws[i].DynID = *nextDyn // a relaunched slot gets a fresh, unique id
		*nextDyn++
	case 2:
		wait[ws[i].Slot] = !wait[ws[i].Slot]
	default:
		ws[i].Category = core.Category(rng.Intn(3))
	}
	return ws[i]
}

// readySlot picks a random warp with work and returns its slot and its
// position in ws, or -1 and -1 when none has work.
func readySlot(rng *rand.Rand, ws []WarpInfo) (slot, pos int) {
	ready := make([]int, 0, len(ws))
	for i := range ws {
		if ws[i].HasWork {
			ready = append(ready, i)
		}
	}
	if len(ready) == 0 {
		return -1, -1
	}
	pos = ready[rng.Intn(len(ready))]
	return ws[pos].Slot, pos
}

// TestOrderIsPermutationOfReadySlots: for every policy, under random
// views and issue histories, Order emits each HasWork slot exactly once
// and nothing else.
func TestOrderIsPermutationOfReadySlots(t *testing.T) {
	policies := []struct {
		name string
		pol  config.SchedPolicy
	}{
		{"lrr", config.SchedLRR}, {"gto", config.SchedGTO},
		{"two-level", config.SchedTwoLevel}, {"owf", config.SchedOWF},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var nextDyn int64
			wait := waits{}
			for trial := 0; trial < 50; trial++ {
				s := New(p.pol, 4, wait.long)
				ws := randViews(rng, 1+rng.Intn(12), &nextDyn, wait)
				for step := 0; step < 20; step++ {
					mutate(rng, ws, &nextDyn, wait)
					order := s.Order(ws, nil)
					seen := map[int]bool{}
					for _, slot := range order {
						if seen[slot] {
							t.Fatalf("%s: duplicate slot %d in %v", p.name, slot, order)
						}
						seen[slot] = true
					}
					nReady := 0
					for i := range ws {
						if ws[i].HasWork {
							nReady++
							if !seen[ws[i].Slot] {
								t.Fatalf("%s: ready slot %d missing from %v", p.name, ws[i].Slot, order)
							}
						}
					}
					if len(order) != nReady {
						t.Fatalf("%s: order %v has %d entries, want %d ready", p.name, order, len(order), nReady)
					}
					if slot, pos := readySlot(rng, ws); slot >= 0 && rng.Intn(2) == 0 {
						s.Issued(slot, pos)
					}
				}
			}
		})
	}
}

// TestOWFPartitionProperty: OWF's ranking is always partitioned owner ≤
// unshared ≤ non-owner, regardless of issue history — the greedy hoist
// may reorder within a category but never across one.
func TestOWFPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var nextDyn int64
	catOf := func(ws []WarpInfo, slot int) core.Category {
		for i := range ws {
			if ws[i].Slot == slot {
				return ws[i].Category
			}
		}
		t.Fatalf("slot %d not in views", slot)
		return 0
	}
	wait := waits{}
	for trial := 0; trial < 100; trial++ {
		s := New(config.SchedOWF, 0, nil)
		ws := randViews(rng, 1+rng.Intn(12), &nextDyn, wait)
		for step := 0; step < 20; step++ {
			mutate(rng, ws, &nextDyn, wait)
			order := s.Order(ws, nil)
			for i := 1; i < len(order); i++ {
				if catOf(ws, order[i-1]) > catOf(ws, order[i]) {
					t.Fatalf("category inversion in %v (views %+v)", order, ws)
				}
			}
			if slot, pos := readySlot(rng, ws); slot >= 0 && rng.Intn(2) == 0 {
				s.Issued(slot, pos)
			}
		}
	}
}

// TestCursorMatchesOrder is the ranking's equivalence proof by
// fuzzing: for every policy and any interleaving of view changes and
// issues, the runs Begin writes, walked in order, yield exactly the
// materialised ranking. For GTO and OWF that is the incrementally
// maintained list, fed only through Sync, against the legacy sort
// (Order); its Audit must stay clean throughout, and a shadow list
// shifted only as Sync reports must stay equal to the ready list — the
// way the SM keeps its per-index masks in step. For LRR and two-level,
// whose Order walks the runs itself, it is the rotation against
// eagerRotation, the materialising ranking the runs replaced —
// including two-level's group demotion, so the active group must agree
// after every ranking. (The name predates the runs.)
func TestCursorMatchesOrder(t *testing.T) {
	for _, p := range []struct {
		name string
		pol  config.SchedPolicy
	}{{"lrr", config.SchedLRR}, {"gto", config.SchedGTO}, {"two-level", config.SchedTwoLevel}, {"owf", config.SchedOWF}} {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var nextDyn int64
			wait := waits{}
			for trial := 0; trial < 100; trial++ {
				const group = 4
				s := New(p.pol, group, wait.long)
				var inc *ReadyList
				if i, ok := s.(Incremental); ok {
					inc = i.Ready()
				}
				eager := &eagerRotation{group: group, last: -1, wait: wait}
				if p.pol == config.SchedLRR {
					eager.group = 0 // one group of every warp
				}
				ws := randViews(rng, 1+rng.Intn(16), &nextDyn, wait)
				var shadow []int
				sync := func(w WarpInfo) {
					removed, inserted := inc.Sync(w)
					if removed >= 0 {
						shadow = slices.Delete(shadow, removed, removed+1)
					}
					if inserted >= 0 {
						shadow = slices.Insert(shadow, inserted, w.Slot)
					}
					if inc.Len() != len(shadow) {
						t.Fatalf("ready list has %d entries, the shifts Sync reported leave %d", inc.Len(), len(shadow))
					}
					for i, slot := range shadow {
						if inc.Slot(i) != slot || inc.Index(slot) != i {
							t.Fatalf("entry %d: ready list has slot %d (slot %d at index %d), the shifts Sync reported say slot %d",
								i, inc.Slot(i), slot, inc.Index(slot), slot)
						}
					}
				}
				if inc != nil {
					for i := range ws {
						sync(ws[i])
					}
				}
				var r Ranking
				for step := 0; step < 30; step++ {
					if w := mutate(rng, ws, &nextDyn, wait); inc != nil {
						sync(w)
					}
					var want []int
					if inc != nil {
						want = s.Order(ws, nil)
					} else {
						want = eager.order(ws)
					}
					got := walk(s, ws, &r)
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: ranking %v (runs %v) vs materialised %v", step, got, r.Ranges(), want)
					}
					if tl, ok := s.(*twoLevel); ok && tl.active != eager.active {
						t.Fatalf("step %d: active group %d after the ranking, eager ranking says %d", step, tl.active, eager.active)
					}
					if inc != nil {
						if err := inc.Audit(ws); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					if slot, pos := readySlot(rng, ws); slot >= 0 && rng.Intn(2) == 0 {
						s.Issued(slot, pos)
						eager.last = slot
					}
				}
			}
		})
	}
}

// walk ranks ws with s and returns the slots of its runs in order, as
// the SM walks them: a ready-list index through Slot, a view position
// only when the view has work.
func walk(s Scheduler, ws []WarpInfo, r *Ranking) []int {
	s.Begin(ws, r)
	inc, ok := s.(Incremental)
	if !ok {
		return r.views(ws, nil)
	}
	var out []int
	for _, rg := range r.Ranges() {
		for i := int(rg.Lo); i < int(rg.Hi); i++ {
			out = append(out, inc.Ready().Slot(i))
		}
	}
	return out
}

// eagerRotation is the LRR / two-level ranking as it was written before
// the cursor: the whole rotation appended to a slice. group 0 means one
// group of every warp (LRR).
type eagerRotation struct {
	group, active, last int
	wait                waits
}

func (s *eagerRotation) order(warps []WarpInfo) []int {
	var out []int
	n := len(warps)
	if n == 0 {
		return out
	}
	group := s.group
	if group == 0 {
		group = n
	}
	groups := (n + group - 1) / group
	if s.active >= groups {
		s.active = 0
	}
	runnable := func(g int) bool {
		for i := g * group; i < min((g+1)*group, n); i++ {
			if warps[i].HasWork && !s.wait[warps[i].Slot] {
				return true
			}
		}
		return false
	}
	if s.group != 0 && !runnable(s.active) {
		for g := 1; g < groups; g++ {
			if cand := (s.active + g) % groups; runnable(cand) {
				s.active = cand
				break
			}
		}
	}
	p := posOfSlot(warps, s.last, -1)
	for g := 0; g < groups; g++ {
		gi := (s.active + g) % groups
		lo, hi := gi*group, min((gi+1)*group, n)
		for i := 0; i < hi-lo; i++ {
			if w := &warps[lo+(p+1+i)%(hi-lo)]; w.HasWork {
				out = append(out, w.Slot)
			}
		}
	}
	return out
}
