package sched

import (
	"math/rand"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
)

// randViews builds a randomized warp set with interleaved (non-contiguous)
// slot numbers, unique dynamic ids, mixed categories and some warps
// waiting on memory — the shape a scheduler actually sees when an SM
// splits its warps across schedulers.
func randViews(rng *rand.Rand, n int, nextDyn *int64) []WarpInfo {
	ws := make([]WarpInfo, n)
	for i := range ws {
		ws[i] = WarpInfo{
			Slot:        i*2 + 1, // interleaved: slot numbers are not positions
			HasWork:     rng.Intn(4) != 0,
			DynID:       *nextDyn,
			Category:    core.Category(rng.Intn(3)),
			WaitingLong: rng.Intn(2) == 0,
		}
		*nextDyn++
	}
	return ws
}

// mutate applies one random view change and returns the changed entry.
func mutate(rng *rand.Rand, ws []WarpInfo, nextDyn *int64) WarpInfo {
	i := rng.Intn(len(ws))
	switch rng.Intn(4) {
	case 0:
		ws[i].HasWork = !ws[i].HasWork
	case 1:
		ws[i].DynID = *nextDyn // a relaunched slot gets a fresh, unique id
		*nextDyn++
	case 2:
		ws[i].WaitingLong = !ws[i].WaitingLong
	default:
		ws[i].Category = core.Category(rng.Intn(3))
	}
	return ws[i]
}

func readySlot(rng *rand.Rand, ws []WarpInfo) int {
	ready := make([]int, 0, len(ws))
	for i := range ws {
		if ws[i].HasWork {
			ready = append(ready, ws[i].Slot)
		}
	}
	if len(ready) == 0 {
		return -1
	}
	return ready[rng.Intn(len(ready))]
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
			for trial := 0; trial < 50; trial++ {
				s := New(p.pol, 4)
				ws := randViews(rng, 1+rng.Intn(12), &nextDyn)
				for step := 0; step < 20; step++ {
					mutate(rng, ws, &nextDyn)
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
					if slot := readySlot(rng, ws); slot >= 0 && rng.Intn(2) == 0 {
						s.Issued(slot)
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
	for trial := 0; trial < 100; trial++ {
		s := New(config.SchedOWF, 0)
		ws := randViews(rng, 1+rng.Intn(12), &nextDyn)
		for step := 0; step < 20; step++ {
			mutate(rng, ws, &nextDyn)
			order := s.Order(ws, nil)
			for i := 1; i < len(order); i++ {
				if catOf(ws, order[i-1]) > catOf(ws, order[i]) {
					t.Fatalf("category inversion in %v (views %+v)", order, ws)
				}
			}
			if slot := readySlot(rng, ws); slot >= 0 && rng.Intn(2) == 0 {
				s.Issued(slot)
			}
		}
	}
}

// TestCursorMatchesOrder is the lazy walk's equivalence proof by
// fuzzing: for every policy and any interleaving of view changes and
// issues, the walk Begin starts yields exactly the materialised ranking.
// For GTO and OWF that is the incrementally maintained list, fed only
// through Sync, against the legacy sort (Order); AuditReady must stay
// clean throughout. For LRR and two-level, whose Order is the drained
// cursor itself, it is the rotation against eagerRotation, the
// materialising ranking the cursor replaced — including two-level's
// group demotion, so the active group must agree after every walk.
func TestCursorMatchesOrder(t *testing.T) {
	for _, p := range []struct {
		name string
		pol  config.SchedPolicy
	}{{"lrr", config.SchedLRR}, {"gto", config.SchedGTO}, {"two-level", config.SchedTwoLevel}, {"owf", config.SchedOWF}} {
		t.Run(p.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var nextDyn int64
			for trial := 0; trial < 100; trial++ {
				const group = 4
				s := New(p.pol, group)
				inc, _ := s.(Incremental)
				eager := &eagerRotation{group: group, last: -1}
				if p.pol == config.SchedLRR {
					eager.group = 0 // one group of every warp
				}
				ws := randViews(rng, 1+rng.Intn(16), &nextDyn)
				if inc != nil {
					for i := range ws {
						inc.Sync(ws[i])
					}
				}
				for step := 0; step < 30; step++ {
					if w := mutate(rng, ws, &nextDyn); inc != nil {
						inc.Sync(w)
					}
					var want []int
					if inc != nil {
						want = s.Order(ws, nil)
					} else {
						want = eager.order(ws)
					}
					var c Cursor
					s.Begin(ws, &c)
					got := c.drain(nil)
					if len(got) != len(want) {
						t.Fatalf("step %d: cursor %v vs ranking %v", step, got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d: cursor %v vs ranking %v", step, got, want)
						}
					}
					if tl, ok := s.(*twoLevel); ok && tl.active != eager.active {
						t.Fatalf("step %d: active group %d after the walk, eager ranking says %d", step, tl.active, eager.active)
					}
					if inc != nil {
						if err := inc.AuditReady(ws); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					if slot := readySlot(rng, ws); slot >= 0 && rng.Intn(2) == 0 {
						s.Issued(slot)
						eager.last = slot
					}
				}
			}
		})
	}
}

// eagerRotation is the LRR / two-level ranking as it was written before
// the cursor: the whole rotation appended to a slice. group 0 means one
// group of every warp (LRR).
type eagerRotation struct {
	group, active, last int
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
			if warps[i].HasWork && !warps[i].WaitingLong {
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
	p := posOfSlot(warps, s.last)
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
