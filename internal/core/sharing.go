package core

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// Category classifies a warp for the OWF scheduler (§IV-A) and the
// dynamic-warp-execution gate (§IV-C).
type Category uint8

// Warp categories in OWF priority order (highest first).
const (
	CatOwner    Category = iota // warp of the pair's owner block
	CatUnshared                 // warp of an unshared block (or pair with no owner yet)
	CatNonOwner                 // warp of the pair's non-owner block
)

func (c Category) String() string {
	switch c {
	case CatOwner:
		return "owner"
	case CatUnshared:
		return "unshared"
	case CatNonOwner:
		return "non-owner"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

const noSide = -1

// Pair is the sharing state of one pair of block slots on an SM.
type Pair struct {
	Slots [2]int // hardware block slots of the two sides

	// Owner is the side (0/1) currently owning the shared resources, or
	// noSide before any shared access. The owner's warps have priority
	// under OWF and are never gated by dynamic warp execution.
	Owner int8

	// Register sharing state: one lock per warp pair (warp i of side 0
	// with warp i of side 1). warpLocks[i] is noSide when free,
	// otherwise the side holding it. activeLocks counts live locks per
	// side — the deadlock-avoidance rule of Fig. 5 consults it.
	warpLocks   []int8
	activeLocks [2]int

	// Scratchpad sharing state: one lock per pair, held by a side until
	// that side's block finishes.
	smemLock int8
}

// Manager tracks the sharing state of one SM: which block slots form
// pairs, per-pair lock state, and the private/shared split points.
type Manager struct {
	Mode config.SharingMode

	// PrivateRegs: register indices < PrivateRegs are private to each
	// shared warp; >= are in the shared pool (Fig. 3).
	PrivateRegs int
	// PrivateSmem: scratchpad byte addresses < PrivateSmem are private
	// to each shared block; >= are in the shared pool (Fig. 4).
	PrivateSmem int

	pairs      []*Pair
	pairOfSlot []int  // block slot -> pair index or -1
	sideOfSlot []int8 // block slot -> 0/1 within its pair

	// Faults, when non-nil, is the fault-injection plan for the
	// invariant-checker tests; ReleaseReg offers it the
	// CorruptLeaseRelease opportunity.
	Faults *fault.Plan

	// epoch counts ownership changes across all pairs. Warp categories
	// depend only on pair ownership, so a cached Category is valid as
	// long as the epoch it was computed under is still current.
	epoch uint64

	// lockGen counts register-lock state changes: it advances on every
	// new acquisition, every release and every block completion. A failed
	// TryAcquireReg mutates nothing, so a warp seen waiting on the lock
	// at generation g is still waiting while LockGen() == g — the SM's
	// census replays lock waits on that. Derived state: not part of
	// the checkpoint; RestoreState advances it so no older observation
	// survives a restore.
	lockGen uint32

	// Statistics.
	LockAcquires   int64
	OwnershipXfers int64

	view []PairCheckpoint // Checkpoint's pair list, refreshed in place
}

// NewManager builds the sharing manager for an SM with the given
// occupancy: slots [0, occ.Unshared) run unshared blocks; slots
// occ.Unshared+2i and occ.Unshared+2i+1 form pair i.
func NewManager(cfg *config.Config, occ Occupancy, warpsPerBlock int) *Manager {
	m := &Manager{
		Mode:        cfg.Sharing,
		PrivateRegs: occ.PrivateRegs,
		PrivateSmem: occ.PrivateSmem,
		pairOfSlot:  make([]int, occ.Max),
		sideOfSlot:  make([]int8, occ.Max),
	}
	for i := range m.pairOfSlot {
		m.pairOfSlot[i] = -1
	}
	// One array for the pairs and one for their warp-lock ledgers.
	pairs, locks := make([]Pair, occ.Pairs), make([]int8, occ.Pairs*warpsPerBlock)
	m.pairs = make([]*Pair, occ.Pairs)
	for i := range m.pairs {
		a := occ.Unshared + 2*i
		b := a + 1
		pairs[i] = Pair{Slots: [2]int{a, b}, warpLocks: locks[i*warpsPerBlock : (i+1)*warpsPerBlock : (i+1)*warpsPerBlock]}
		m.pairs[i] = &pairs[i]
		m.pairOfSlot[a], m.sideOfSlot[a] = i, 0
		m.pairOfSlot[b], m.sideOfSlot[b] = i, 1
	}
	m.Reset()
	return m
}

// Reset returns the manager to the state NewManager built it in: every
// pair unowned with all its locks free, and the ownership epoch, lock
// generation and statistics at zero. The pair topology and Faults stay.
func (m *Manager) Reset() {
	for _, p := range m.pairs {
		p.Owner, p.smemLock, p.activeLocks = noSide, noSide, [2]int{}
		for j := range p.warpLocks {
			p.warpLocks[j] = noSide
		}
	}
	m.epoch, m.lockGen, m.LockAcquires, m.OwnershipXfers = 0, 0, 0, 0
}

// Shared reports whether the block slot belongs to a sharing pair.
func (m *Manager) Shared(slot int) bool {
	return m != nil && slot < len(m.pairOfSlot) && m.pairOfSlot[slot] >= 0
}

// PartnerSlot returns the other slot of the pair, or -1 for unshared
// slots.
func (m *Manager) PartnerSlot(slot int) int {
	if !m.Shared(slot) {
		return -1
	}
	p := m.pairs[m.pairOfSlot[slot]]
	return p.Slots[1-m.sideOfSlot[slot]]
}

// Category classifies the warps of a block slot.
func (m *Manager) Category(slot int) Category {
	if !m.Shared(slot) {
		return CatUnshared
	}
	p := m.pairs[m.pairOfSlot[slot]]
	switch p.Owner {
	case noSide:
		return CatUnshared
	case m.sideOfSlot[slot]:
		return CatOwner
	default:
		return CatNonOwner
	}
}

// RegNeedsLock reports whether issuing in from a warp in the given slot
// requires holding the pair's shared-register lock: the slot is in a
// pair and the instruction touches a register in the shared pool.
func (m *Manager) RegNeedsLock(slot int, in *isa.Instr) bool {
	if m.Mode != config.ShareRegisters || !m.Shared(slot) {
		return false
	}
	return in.MaxReg() >= m.PrivateRegs
}

// HoldsRegLock reports whether the warp already holds its pair lock.
func (m *Manager) HoldsRegLock(slot, warpInCta int) bool {
	p := m.pairs[m.pairOfSlot[slot]]
	return p.warpLocks[warpInCta] == m.sideOfSlot[slot]
}

// TryAcquireReg attempts to take the shared-register lock for warp
// warpInCta of the given slot, enforcing the deadlock-avoidance rule: a
// warp from one block may acquire only when no warp of the partner block
// holds an active lock (Fig. 5). Acquiring establishes block ownership.
func (m *Manager) TryAcquireReg(slot, warpInCta int) bool {
	p := m.pairs[m.pairOfSlot[slot]]
	side := m.sideOfSlot[slot]
	switch p.warpLocks[warpInCta] {
	case side:
		return true // already held
	case 1 - side:
		return false // partner warp holds this pair's lock
	}
	if p.activeLocks[1-side] > 0 {
		return false // deadlock-avoidance: partner block has live locks
	}
	p.warpLocks[warpInCta] = side
	p.activeLocks[side]++
	m.lockGen++
	m.LockAcquires++
	if p.Owner != side {
		if p.Owner != noSide {
			m.OwnershipXfers++
		}
		p.Owner = side
		m.epoch++
	}
	return true
}

// SmemNeedsLock reports whether a scratchpad access with the given
// per-lane addresses touches the shared region.
func (m *Manager) SmemNeedsLock(slot int, addrs *[kernel.WarpSize]uint32, active uint32) bool {
	if m.Mode != config.ShareScratchpad || !m.Shared(slot) {
		return false
	}
	for lane := 0; lane < kernel.WarpSize; lane++ {
		if active&(1<<lane) != 0 && int(addrs[lane]) >= m.PrivateSmem {
			return true
		}
	}
	return false
}

// TryAcquireSmem attempts to take the pair's scratchpad lock for the
// block in the given slot. The lock is block-granular and held until the
// block finishes.
func (m *Manager) TryAcquireSmem(slot int) bool {
	p := m.pairs[m.pairOfSlot[slot]]
	side := m.sideOfSlot[slot]
	switch p.smemLock {
	case side:
		return true
	case 1 - side:
		return false
	}
	p.smemLock = side
	m.LockAcquires++
	if p.Owner != side {
		if p.Owner != noSide {
			m.OwnershipXfers++
		}
		p.Owner = side
		m.epoch++
	}
	return true
}

// ReleaseReg drops the pair lock held by a warp, if any. The simulator
// calls it when a warp finishes and, for the §VIII future-work
// extension, once live-range analysis proves a warp cannot touch the
// shared register pool again, so its lock is released early and the
// partner warp can proceed.
func (m *Manager) ReleaseReg(slot, warpInCta int) {
	if m == nil || m.Mode != config.ShareRegisters || !m.Shared(slot) {
		return
	}
	p := m.pairs[m.pairOfSlot[slot]]
	side := m.sideOfSlot[slot]
	if p.warpLocks[warpInCta] == side {
		p.warpLocks[warpInCta] = noSide
		m.lockGen++
		if m.Faults.Armed(fault.CorruptLeaseRelease) && m.Faults.Trip(fault.CorruptLeaseRelease, -1, -1, warpInCta,
			fmt.Sprintf("released warp lock %d of slot %d without decrementing the active-lock count", warpInCta, slot)) {
			return // injected accounting corruption: lost decrement
		}
		p.activeLocks[side]--
	}
}

// WouldBlockReg reports, without mutating any lock state, whether a
// TryAcquireReg for this warp would fail right now. Used by the
// forensic stall classifier, which must not perturb the simulation.
func (m *Manager) WouldBlockReg(slot, warpInCta int) bool {
	if !m.Shared(slot) {
		return false
	}
	p := m.pairs[m.pairOfSlot[slot]]
	side := m.sideOfSlot[slot]
	switch p.warpLocks[warpInCta] {
	case side:
		return false
	case 1 - side:
		return true
	}
	return p.activeLocks[1-side] > 0
}

// WouldBlockSmem reports, without mutating any lock state, whether a
// TryAcquireSmem for this slot would fail right now.
func (m *Manager) WouldBlockSmem(slot int) bool {
	if !m.Shared(slot) {
		return false
	}
	p := m.pairs[m.pairOfSlot[slot]]
	return p.smemLock == 1-m.sideOfSlot[slot]
}

// Audit verifies the lease-accounting invariants of every pair:
// active-lock counters match the warp locks actually held (no double
// or lost release), locks and ownership are only held by sides whose
// slot runs a live block, and the Fig. 5 deadlock-avoidance rule holds
// (never both sides with active locks). blockLive reports whether a
// block slot currently runs a live block.
func (m *Manager) Audit(blockLive func(slot int) bool) error {
	if m == nil {
		return nil
	}
	for pi, p := range m.pairs {
		var counts [2]int
		for wi, h := range p.warpLocks {
			switch h {
			case noSide:
			case 0, 1:
				counts[h]++
				if !blockLive(p.Slots[h]) {
					return fmt.Errorf("pair %d: warp lock %d held by side %d whose slot %d has no live block",
						pi, wi, h, p.Slots[h])
				}
			default:
				return fmt.Errorf("pair %d: warp lock %d has invalid holder %d", pi, wi, h)
			}
		}
		if counts != p.activeLocks {
			return fmt.Errorf("pair %d: active-lock counters %v disagree with held warp locks %v (lost or double release)",
				pi, p.activeLocks, counts)
		}
		if p.activeLocks[0] > 0 && p.activeLocks[1] > 0 {
			return fmt.Errorf("pair %d: both sides hold active locks %v, violating the Fig. 5 deadlock-avoidance rule",
				pi, p.activeLocks)
		}
		switch p.smemLock {
		case noSide:
		case 0, 1:
			if !blockLive(p.Slots[p.smemLock]) {
				return fmt.Errorf("pair %d: scratchpad lock held by side %d whose slot %d has no live block",
					pi, p.smemLock, p.Slots[p.smemLock])
			}
		default:
			return fmt.Errorf("pair %d: scratchpad lock has invalid holder %d", pi, p.smemLock)
		}
		switch p.Owner {
		case noSide:
		case 0, 1:
			if !blockLive(p.Slots[p.Owner]) {
				return fmt.Errorf("pair %d: ownership held by side %d whose slot %d has no live block (missed ownership transfer)",
					pi, p.Owner, p.Slots[p.Owner])
			}
		default:
			return fmt.Errorf("pair %d: invalid owner %d", pi, p.Owner)
		}
	}
	return nil
}

// BlockFinished handles a block's completion in its slot: all its locks
// are dropped and, if it owned the pair, ownership transfers to the
// partner block (§IV: "as soon as the owner thread block finishes, it
// transfers its ownership to the non-owner thread block"). partnerLive
// says whether the partner slot currently runs a block.
func (m *Manager) BlockFinished(slot int, partnerLive bool) {
	if !m.Shared(slot) {
		return
	}
	p := m.pairs[m.pairOfSlot[slot]]
	side := m.sideOfSlot[slot]
	for i, holder := range p.warpLocks {
		if holder == side {
			p.warpLocks[i] = noSide
		}
	}
	p.activeLocks[side] = 0
	m.lockGen++
	if p.smemLock == side {
		p.smemLock = noSide
	}
	if p.Owner == side {
		if partnerLive {
			p.Owner = 1 - side
			m.OwnershipXfers++
		} else {
			p.Owner = noSide
		}
		m.epoch++
	}
}

// Epoch returns the ownership epoch: it advances whenever any pair's
// owner changes, so callers caching per-slot categories can compare
// epochs instead of re-deriving categories every cycle.
func (m *Manager) Epoch() uint64 {
	if m == nil {
		return 0
	}
	return m.epoch
}

// LockGen returns the register-lock generation (see Manager.lockGen).
func (m *Manager) LockGen() uint32 { return m.lockGen }

// RegLockNeededStatic is the metadata-table variant of RegNeedsLock:
// touchesShared is the precomputed "instruction reaches the shared
// register pool" bit, so the per-issue check is two loads and no
// operand walk.
func (m *Manager) RegLockNeededStatic(slot int, touchesShared bool) bool {
	return m.Mode == config.ShareRegisters && touchesShared && m.Shared(slot)
}
