package sched

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
)

// warps returns n views whose slot numbers are their positions, so a
// test passes one number as both to Issued.
func warps(n int) []WarpInfo {
	ws := make([]WarpInfo, n)
	for i := range ws {
		ws[i] = WarpInfo{Slot: i, DynID: int64(i), Category: core.CatUnshared, HasWork: true}
	}
	return ws
}

func TestLRRRotation(t *testing.T) {
	s := New(config.SchedLRR, 0, nil)
	ws := warps(4)
	order := s.Order(ws, nil)
	if order[0] != 0 {
		t.Fatalf("initial order starts at %d", order[0])
	}
	s.Issued(1, 1)
	order = s.Order(ws, nil)
	if order[0] != 2 || order[3] != 1 {
		t.Fatalf("after issuing 1, order = %v (want rotation from 2)", order)
	}
	// Warps without work are skipped.
	ws[2].HasWork = false
	order = s.Order(ws, nil)
	if len(order) != 3 || order[0] != 3 {
		t.Fatalf("workless warp not skipped: %v", order)
	}
}

func TestGTOGreedyThenOldest(t *testing.T) {
	s := New(config.SchedGTO, 0, nil)
	ws := warps(4)
	ws[0].DynID, ws[2].DynID = 10, -1 // warp 2 is oldest
	order := s.Order(ws, nil)
	if order[0] != 2 {
		t.Fatalf("oldest first: %v", order)
	}
	s.Issued(3, 3)
	order = s.Order(ws, nil)
	if order[0] != 3 {
		t.Fatalf("greedy warp not hoisted: %v", order)
	}
	ws[3].HasWork = false
	order = s.Order(ws, nil)
	if order[0] != 2 {
		t.Fatalf("fall back to oldest: %v", order)
	}
}

func TestOWFCategoryPriority(t *testing.T) {
	s := New(config.SchedOWF, 0, nil)
	ws := warps(6)
	ws[0].Category = core.CatNonOwner
	ws[1].Category = core.CatNonOwner
	ws[2].Category = core.CatOwner
	ws[3].Category = core.CatUnshared
	ws[4].Category = core.CatOwner
	ws[5].Category = core.CatUnshared
	ws[4].DynID = 0 // oldest owner
	order := s.Order(ws, nil)
	// Owners first (oldest owner 4, then 2), then unshared (3,5), then
	// non-owners (0,1).
	want := []int{4, 2, 3, 5, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("OWF order = %v, want %v", order, want)
		}
	}
	// Greedy hoist applies within the top category only.
	s.Issued(2, 2)
	order = s.Order(ws, nil)
	if order[0] != 2 {
		t.Fatalf("greedy owner not first: %v", order)
	}
	// A greedy non-owner never outranks owners or unshared warps.
	s.Issued(0, 0)
	order = s.Order(ws, nil)
	if order[0] == 0 {
		t.Fatalf("non-owner hoisted above owners: %v", order)
	}
}

// TestOWFDegeneratesToGTO: with every warp unshared (Set-3), OWF must
// produce exactly GTO's order — the paper's Fig. 12 observation.
func TestOWFDegeneratesToGTO(t *testing.T) {
	owf := New(config.SchedOWF, 0, nil)
	gto := New(config.SchedGTO, 0, nil)
	ws := warps(8)
	ws[3].DynID = -5
	ws[6].HasWork = false
	for _, issue := range []int{-1, 3, 0, 5} {
		if issue >= 0 {
			owf.Issued(issue, issue)
			gto.Issued(issue, issue)
		}
		a := owf.Order(ws, nil)
		b := gto.Order(ws, nil)
		if len(a) != len(b) {
			t.Fatalf("length mismatch: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("OWF %v != GTO %v after issuing %d", a, b, issue)
			}
		}
	}
}

func TestTwoLevelGroupSwitching(t *testing.T) {
	waiting := make(map[int]bool)
	s := New(config.SchedTwoLevel, 4, func(slot int) bool { return waiting[slot] })
	ws := warps(8)
	order := s.Order(ws, nil)
	if len(order) != 8 {
		t.Fatalf("all warps must appear: %v", order)
	}
	// First group (0..3) leads while runnable.
	if order[0] >= 4 {
		t.Fatalf("active group should lead: %v", order)
	}
	// Demote group 0: all its warps wait on memory.
	for i := 0; i < 4; i++ {
		waiting[ws[i].Slot] = true
	}
	order = s.Order(ws, nil)
	if order[0] < 4 {
		t.Fatalf("blocked group not demoted: %v", order)
	}
}

func TestEmptyAndAllBlocked(t *testing.T) {
	for _, pol := range []config.SchedPolicy{config.SchedLRR, config.SchedGTO, config.SchedTwoLevel, config.SchedOWF} {
		s := New(pol, 4, func(int) bool { return false })
		if got := s.Order(nil, nil); len(got) != 0 {
			t.Errorf("%v: order of no warps = %v", pol, got)
		}
		ws := warps(3)
		for i := range ws {
			ws[i].HasWork = false
		}
		if got := s.Order(ws, nil); len(got) != 0 {
			t.Errorf("%v: workless warps ranked: %v", pol, got)
		}
	}
}
