// Package warp models one warp's execution state: the per-lane register
// file slice, predicate registers, and the SIMT reconvergence stack that
// handles branch divergence, plus the functional executor for the ISA.
package warp

// NoReconv marks the bottom stack entry, which never reconverges.
const NoReconv = -1

// SIMTEntry is one reconvergence-stack entry. A checkpoint serializes
// the live stack as it is, so the fields carry their JSON names.
type SIMTEntry struct {
	PC   int    `json:"pc"`
	RPC  int    `json:"rpc"` // reconvergence PC; NoReconv for the bottom entry
	Mask uint32 `json:"mask"`
}

// SIMT is a per-warp reconvergence stack in the style of post-dominator
// stack hardware (and GPGPU-Sim). The top entry holds the warp's current
// PC and active mask. On a divergent branch the current entry's PC is set
// to the reconvergence point and one entry per outcome is pushed; an entry
// whose PC reaches its reconvergence PC is popped, resuming the parent.
type SIMT struct {
	stack []SIMTEntry
}

// NewSIMT returns a stack with all lanes in mask active at PC 0.
func NewSIMT(mask uint32) SIMT {
	return SIMT{stack: []SIMTEntry{{PC: 0, RPC: NoReconv, Mask: mask}}}
}

// reset returns the stack to NewSIMT(mask)'s state in its own storage.
func (s *SIMT) reset(mask uint32) {
	s.stack = append(s.stack[:0], SIMTEntry{PC: 0, RPC: NoReconv, Mask: mask})
}

// Done reports whether no lanes remain (the warp has finished).
func (s *SIMT) Done() bool { return len(s.stack) == 0 }

// Depth returns the current stack depth (1 = converged).
func (s *SIMT) Depth() int { return len(s.stack) }

// Top returns the current PC and active mask. It must not be called on a
// finished warp.
func (s *SIMT) Top() (pc int, mask uint32) {
	t := &s.stack[len(s.stack)-1]
	return t.PC, t.Mask
}

// reconverge pops entries whose PC has reached their reconvergence point
// or whose lanes have all exited.
func (s *SIMT) reconverge() {
	for len(s.stack) > 0 {
		t := &s.stack[len(s.stack)-1]
		if t.Mask == 0 {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		if len(s.stack) > 1 && t.PC == t.RPC {
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		return
	}
}

// Advance moves past a non-branch instruction.
func (s *SIMT) Advance() {
	s.stack[len(s.stack)-1].PC++
	s.reconverge()
}

// Branch resolves a (possibly divergent) branch. taken is the subset of
// the current active mask whose guard predicate held; those lanes jump to
// target while the rest fall through, reconverging at reconv.
//
// Reconvergence points must be properly nested: a branch executed inside
// a divergent region must reconverge at or before the enclosing region's
// reconvergence point (structured control flow). The kernel builder's
// label discipline produces exactly this shape.
func (s *SIMT) Branch(taken uint32, target, reconv int) {
	top := &s.stack[len(s.stack)-1]
	cur := top.Mask
	fallPC := top.PC + 1
	notTaken := cur &^ taken
	switch {
	case taken == 0:
		top.PC = fallPC
	case notTaken == 0:
		top.PC = target
	default:
		top.PC = reconv
		// Coalesce with an identical waiting entry below (this happens
		// every iteration of a loop that sheds lanes): the lower entry
		// already holds a superset mask waiting at the same point, so
		// the stack stays bounded regardless of trip counts.
		if n := len(s.stack); n >= 2 {
			below := &s.stack[n-2]
			if below.PC == top.PC && below.RPC == top.RPC {
				s.stack = s.stack[:n-1]
			}
		}
		if fallPC != reconv {
			s.stack = append(s.stack, SIMTEntry{PC: fallPC, RPC: reconv, Mask: notTaken})
		}
		if target != reconv {
			s.stack = append(s.stack, SIMTEntry{PC: target, RPC: reconv, Mask: taken})
		}
	}
	s.reconverge()
}

// ExitLanes removes lanes from every stack entry (thread exit) and then
// advances past the EXIT instruction for any lanes that did not exit.
// It returns true when the warp has finished entirely.
func (s *SIMT) ExitLanes(exited uint32) bool {
	for i := range s.stack {
		s.stack[i].Mask &^= exited
	}
	// Lanes that did not take the (guarded) exit continue at pc+1.
	if top := &s.stack[len(s.stack)-1]; top.Mask != 0 {
		top.PC++
	}
	s.reconverge()
	return s.Done()
}

// ActiveUnion returns the union of all entry masks: the lanes that have
// not yet exited.
func (s *SIMT) ActiveUnion() uint32 {
	var m uint32
	for i := range s.stack {
		m |= s.stack[i].Mask
	}
	return m
}

// WellFormed reports the structural stack invariant for external
// auditors (the cycle-level invariant checker): see wellNested.
func (s *SIMT) WellFormed() bool { return s.wellNested() }

// wellNested reports the structural invariant used by property tests:
// each entry's mask is a subset of the entry below it (a parent keeps
// the union of its children so reconvergence restores the full mask),
// and sibling entries sharing a reconvergence point are disjoint.
func (s *SIMT) wellNested() bool {
	for i := 1; i < len(s.stack); i++ {
		child, parent := &s.stack[i], &s.stack[i-1]
		if parent.PC == child.PC && parent.RPC == child.RPC {
			continue // coalescable twins hold independent lane sets
		}
		if child.Mask&^parent.Mask != 0 {
			if parent.RPC == child.RPC {
				// Siblings of one divergence: disjoint instead.
				if child.Mask&parent.Mask != 0 {
					return false
				}
				continue
			}
			return false
		}
	}
	return true
}
