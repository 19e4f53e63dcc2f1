package warp

import (
	"math/rand"
	"testing"
)

func TestSIMTStraightLine(t *testing.T) {
	s := NewSIMT(0xff)
	for i := 0; i < 5; i++ {
		pc, mask := s.Top()
		if pc != i || mask != 0xff {
			t.Fatalf("step %d: pc=%d mask=%#x", i, pc, mask)
		}
		s.Advance()
	}
}

func TestSIMTUniformBranch(t *testing.T) {
	s := NewSIMT(0xf)
	// All active lanes take the branch: jump without pushing.
	s.Branch(0xf, 10, 20)
	if pc, mask := s.Top(); pc != 10 || mask != 0xf || s.Depth() != 1 {
		t.Fatalf("taken: pc=%d mask=%#x depth=%d", pc, mask, s.Depth())
	}
	// No lane takes: fall through.
	s.Branch(0, 3, 20)
	if pc, _ := s.Top(); pc != 11 {
		t.Fatalf("not taken: pc=%d", pc)
	}
}

func TestSIMTDivergeAndReconverge(t *testing.T) {
	s := NewSIMT(0xf)
	// At pc 0: lanes 0,1 take to pc 5; lanes 2,3 fall through; reconverge at 8.
	s.Branch(0b0011, 5, 8)
	pc, mask := s.Top()
	if pc != 5 || mask != 0b0011 || s.Depth() != 3 {
		t.Fatalf("taken path first: pc=%d mask=%#x depth=%d", pc, mask, s.Depth())
	}
	// Taken path runs 5,6,7 then hits reconvergence at 8.
	s.Advance()
	s.Advance()
	s.Advance()
	pc, mask = s.Top()
	if pc != 1 || mask != 0b1100 {
		t.Fatalf("fall-through path: pc=%d mask=%#x", pc, mask)
	}
	// Fall-through runs 1..7.
	for i := 0; i < 7; i++ {
		s.Advance()
	}
	pc, mask = s.Top()
	if pc != 8 || mask != 0xf || s.Depth() != 1 {
		t.Fatalf("reconverged: pc=%d mask=%#x depth=%d", pc, mask, s.Depth())
	}
}

// TestSIMTDivergentLoop checks the stack does not grow with iterations
// when lanes exit a loop at different trip counts.
func TestSIMTDivergentLoop(t *testing.T) {
	// Program: pc0 body; pc1 guarded backward branch to 0, reconv 2.
	s := NewSIMT(0xffffffff)
	trips := make([]int, 32)
	for lane := range trips {
		trips[lane] = 1 + lane%5
	}
	iter := 0
	maxDepth := 0
	for !s.Done() {
		pc, mask := s.Top()
		if d := s.Depth(); d > maxDepth {
			maxDepth = d
		}
		switch pc {
		case 0:
			s.Advance()
		case 1:
			iter++
			if iter > 1000 {
				t.Fatal("loop did not terminate")
			}
			var taken uint32
			for lane := 0; lane < 32; lane++ {
				if mask&(1<<lane) != 0 {
					trips[lane]--
					if trips[lane] > 0 {
						taken |= 1 << lane
					}
				}
			}
			s.Branch(taken, 0, 2)
		case 2:
			if mask != 0xffffffff {
				t.Fatalf("reconverged with mask %#x", mask)
			}
			if s.ExitLanes(mask) != true {
				t.Fatal("exit should finish the warp")
			}
		}
	}
	if maxDepth > 3 {
		t.Errorf("stack grew to %d entries; loop divergence must not accumulate", maxDepth)
	}
}

func TestSIMTGuardedExit(t *testing.T) {
	s := NewSIMT(0b1111)
	// Lanes 0,1 exit at pc 0; lanes 2,3 continue.
	if s.ExitLanes(0b0011) {
		t.Fatal("warp should not be done")
	}
	pc, mask := s.Top()
	if pc != 1 || mask != 0b1100 {
		t.Fatalf("after partial exit: pc=%d mask=%#x", pc, mask)
	}
	if !s.ExitLanes(0b1100) {
		t.Fatal("warp should be done")
	}
}

func TestSIMTExitInsideDivergence(t *testing.T) {
	s := NewSIMT(0b1111)
	s.Branch(0b0011, 5, 8) // lanes 0,1 at 5; lanes 2,3 at 1
	// Taken path exits entirely.
	if s.ExitLanes(0b0011) {
		t.Fatal("other lanes still live")
	}
	pc, mask := s.Top()
	if pc != 1 || mask != 0b1100 {
		t.Fatalf("after exit of taken path: pc=%d mask=%#x", pc, mask)
	}
	if got := s.ActiveUnion(); got != 0b1100 {
		t.Fatalf("ActiveUnion = %#x", got)
	}
}

// TestSIMTMaskInvariants drives random structured branch/advance/exit
// sequences and checks: entry masks stay pairwise disjoint, the active
// mask is always a subset of the live lanes, and every lane eventually
// executes exactly once per reconvergence region.
func TestSIMTMaskInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		live := uint32(rng.Int63()) | 1
		s := NewSIMT(live)
		exited := uint32(0)
		for step := 0; step < 300 && !s.Done(); step++ {
			if !s.wellNested() {
				t.Fatalf("trial %d: stack not well nested", trial)
			}
			if s.ActiveUnion()&^(live&^exited) != 0 {
				t.Fatalf("trial %d: active lanes not live", trial)
			}
			pc, mask := s.Top()
			// Reconvergence points must stay properly nested inside the
			// enclosing region (structured control flow), as the kernel
			// builder guarantees.
			bound := s.stack[len(s.stack)-1].RPC
			switch rng.Intn(4) {
			case 0:
				s.Advance()
			case 1: // forward divergent branch, nested in the region
				reconv := pc + 4
				if bound != NoReconv && reconv > bound {
					reconv = bound
				}
				if reconv <= pc+1 {
					s.Advance()
					continue
				}
				taken := mask & uint32(rng.Int63())
				s.Branch(taken, pc+1+rng.Intn(reconv-pc-1), reconv)
			case 2: // uniform jump forward within the region
				target := pc + 2
				if bound != NoReconv && target > bound {
					target = bound
				}
				s.Branch(mask, target, target)
			case 3: // some lanes exit
				ex := mask & uint32(rng.Int63())
				exited |= ex
				s.ExitLanes(ex)
			}
		}
	}
}
