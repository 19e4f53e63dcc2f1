package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// TestLineTableMatchesMap drives a LineTable and the map of slices it
// replaced with the same fuzzed Add/Take stream — line addresses that
// collide in the low bits the way one partition's or one kernel's do,
// occupancy swinging between empty and well past the initial size — and
// demands the same first-miss verdicts, the same waiters in the same
// merge order, the same Len, Get, ForEach set and sorted Lines.
func TestLineTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewLineTable[int]()
		ref := map[uint32][]int{}
		line := func() uint32 { return uint32(rng.Intn(96))*6*128 + uint32(rng.Intn(2))<<24 }
		grow := true
		for op := 0; op < 20000; op++ {
			if len(ref) > 80 {
				grow = false
			} else if len(ref) == 0 {
				grow = true
			}
			if l := line(); rng.Intn(10) < 4 || (grow && rng.Intn(3) == 0) {
				_, had := ref[l]
				ref[l] = append(ref[l], op)
				if first := tab.Add(l, op); first == had {
					t.Fatalf("seed %d op %d: Add(%#x) first=%v, map had it: %v", seed, op, l, first, had)
				}
			} else {
				want := ref[l]
				delete(ref, l)
				if got := tab.Take(l); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Take(%#x) = %v, want %v", seed, op, l, got, want)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, map %d", seed, op, tab.Len(), len(ref))
			}
			if op%64 != 0 {
				continue
			}
			var want []uint32
			for l, ws := range ref {
				want = append(want, l)
				if got := tab.Get(l); !slices.Equal(got, ws) {
					t.Fatalf("seed %d op %d: Get(%#x) = %v, want %v", seed, op, l, got, ws)
				}
			}
			slices.Sort(want)
			if got := tab.Lines(); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: Lines %v, want %v", seed, op, got, want)
			}
			seen := 0
			tab.ForEach(func(l uint32, ws []int) {
				seen++
				if !slices.Equal(ws, ref[l]) {
					t.Fatalf("seed %d op %d: ForEach(%#x) = %v, want %v", seed, op, l, ws, ref[l])
				}
			})
			if seen != len(ref) {
				t.Fatalf("seed %d op %d: ForEach visited %d lines, want %d", seed, op, seen, len(ref))
			}
			if tab.Get(0xdeadbe00) != nil || tab.Take(0xdeadbe00) != nil {
				t.Fatal("a line never added is outstanding")
			}
		}
	}
}

// TestLineTableSteadyStateAllocatesNothing: once every slot's waiter
// array has been through one miss, opening, merging into and closing
// entries allocates nothing — dead slots keep their arrays, and the
// backward shift moves them along instead of dropping them.
func TestLineTableSteadyStateAllocatesNothing(t *testing.T) {
	tab := NewLineTable[int]()
	churn := func() {
		for round := uint32(0); round < 64; round++ {
			for k := uint32(0); k < 32; k++ {
				tab.Add((round*7+k)*128, 1)
				tab.Add((round*7+k)*128, 2)
			}
			for k := uint32(0); k < 32; k++ {
				if len(tab.Take((round*7+k)*128)) != 2 {
					t.Fatal("waiters lost")
				}
			}
		}
	}
	churn()
	if allocs := testing.AllocsPerRun(5, churn); allocs != 0 {
		t.Errorf("steady-state churn allocates %.0f times a run, want 0", allocs)
	}
}
