package core

import "fmt"

// PairCheckpoint is the mutable sharing state of one slot pair. The
// pair topology (Slots, warps-per-block) is rebuilt from the config on
// restore and therefore excluded.
type PairCheckpoint struct {
	Owner       int8   `json:"owner"`
	WarpLocks   []int8 `json:"warp_locks"`
	ActiveLocks [2]int `json:"active_locks"`
	SmemLock    int8   `json:"smem_lock"`
}

// ManagerCheckpoint is the mutable state of one SM's sharing manager:
// per-pair lock ledgers, the ownership epoch, and the lock statistics.
type ManagerCheckpoint struct {
	Pairs          []PairCheckpoint `json:"pairs"`
	Epoch          uint64           `json:"epoch"`
	LockAcquires   int64            `json:"lock_acquires"`
	OwnershipXfers int64            `json:"ownership_xfers"`
}

// Checkpoint captures the manager's mutable state. A nil manager (an SM
// with no sharing) checkpoints as the zero value.
func (m *Manager) Checkpoint() ManagerCheckpoint {
	if m == nil {
		return ManagerCheckpoint{}
	}
	c := ManagerCheckpoint{
		Pairs:          make([]PairCheckpoint, len(m.pairs)),
		Epoch:          m.epoch,
		LockAcquires:   m.LockAcquires,
		OwnershipXfers: m.OwnershipXfers,
	}
	for i, p := range m.pairs {
		c.Pairs[i] = PairCheckpoint{
			Owner:       p.Owner,
			WarpLocks:   append([]int8(nil), p.warpLocks...),
			ActiveLocks: p.activeLocks,
			SmemLock:    p.smemLock,
		}
	}
	return c
}

// RestoreState applies a snapshot onto a freshly constructed manager
// with identical pair topology.
func (m *Manager) RestoreState(c ManagerCheckpoint) error {
	if m == nil {
		if len(c.Pairs) != 0 {
			return fmt.Errorf("sharing snapshot has %d pairs but the SM has no sharing manager", len(c.Pairs))
		}
		return nil
	}
	if len(c.Pairs) != len(m.pairs) {
		return fmt.Errorf("sharing snapshot has %d pairs, manager has %d", len(c.Pairs), len(m.pairs))
	}
	for i, pc := range c.Pairs {
		p := m.pairs[i]
		if len(pc.WarpLocks) != len(p.warpLocks) {
			return fmt.Errorf("sharing snapshot pair %d has %d warp locks, manager has %d", i, len(pc.WarpLocks), len(p.warpLocks))
		}
		p.Owner = pc.Owner
		copy(p.warpLocks, pc.WarpLocks)
		p.activeLocks = pc.ActiveLocks
		p.smemLock = pc.SmemLock
	}
	m.epoch = c.Epoch
	m.lockGen++ // lock state was replaced wholesale
	m.LockAcquires = c.LockAcquires
	m.OwnershipXfers = c.OwnershipXfers
	return nil
}
