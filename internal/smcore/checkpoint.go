package smcore

import (
	"fmt"
	"sort"

	"gpushare/internal/core"
	"gpushare/internal/mem"
	"gpushare/internal/mem/cache"
	"gpushare/internal/sched"
	"gpushare/internal/stats"
	"gpushare/internal/warp"
)

// This file serializes one SM's complete mutable state. Checkpoints are
// taken at cycle boundaries (before any SM has ticked). Deliberately
// excluded, because they are caches rebuilt exactly from serialized
// state: the scheduler view buffers and incremental ready rankings
// (RestoreState marks every warp dirty, so the first refresh re-snapshots
// and re-Syncs every slot — reproducing the identical sorted ranking),
// the issue cards and censuses (dropped with the views; the first walk
// re-derives them), each warp's cached next PC (re-read from the
// restored SIMT stack), the static issue metadata, and the free lists
// (allocation identity is not machine state). Payloads written before
// the never-set sfu_busy field was dropped still decode: the JSON
// decoder ignores the key.

// WarpCheckpoint is one hardware warp slot.
type WarpCheckpoint struct {
	W            warp.StateCheckpoint `json:"w"`
	Live         bool                 `json:"live"`
	Finished     bool                 `json:"finished"`
	AtBarrier    bool                 `json:"at_barrier"`
	PendingRegs  uint64               `json:"pending_regs"`
	PendingPreds uint8                `json:"pending_preds"`
	LoadRegs     uint64               `json:"load_regs"`
	Gen          uint32               `json:"gen"`
}

// BlockCheckpoint is one hardware block slot. Slot geometry (owning
// tenant, warp base) is static and rebuilt at construction; the block
// env is rebuilt from the CTA id by the same recipe LaunchBlock uses.
// Scratchpad contents are serialized only for live blocks.
type BlockCheckpoint struct {
	Live        bool   `json:"live"`
	CtaID       int    `json:"cta_id"`
	Smem        []byte `json:"smem,omitempty"`
	ActiveWarps int    `json:"active_warps"`
	Arrived     int    `json:"arrived"`
}

// TenantCheckpoint is one tenant's mutable state: sharing-manager
// leases and per-tenant counters. What its blocks hold is derived from
// the live slots; payloads that still carry the old cap ledger
// (used_regs, used_smem, live_blocks) decode with those keys ignored.
type TenantCheckpoint struct {
	Shr   core.ManagerCheckpoint `json:"shr"`
	Stats stats.Tenant           `json:"stats"`
}

// GroupCheckpoint is one in-flight load group. Groups are shared by
// reference between MSHR waiter lists and writeback events, so they are
// serialized once in a table and referenced by index.
type GroupCheckpoint struct {
	WarpSlot  int    `json:"warp_slot"`
	Remaining int    `json:"remaining"`
	RegMask   uint64 `json:"reg_mask"`
	Gen       uint32 `json:"gen"`
}

// MSHRCheckpoint is one L1 MSHR line with its waiting load groups (as
// indices into the group table) in merge order.
type MSHRCheckpoint struct {
	Addr   uint32 `json:"addr"`
	Groups []int  `json:"groups"`
}

// WBCheckpoint is one scheduled writeback event with its absolute
// deadline. Group is an index into the group table, or -1 for direct
// scoreboard writebacks.
type WBCheckpoint struct {
	At       int64  `json:"at"`
	WarpSlot int    `json:"warp_slot"`
	Gen      uint32 `json:"gen"`
	RegMask  uint64 `json:"reg_mask"`
	PredMask uint8  `json:"pred_mask"`
	Group    int    `json:"group"`
}

// Checkpoint is one SM's complete mutable state.
type Checkpoint struct {
	Warps    []WarpCheckpoint   `json:"warps"`
	Blocks   []BlockCheckpoint  `json:"blocks"`
	Tenants  []TenantCheckpoint `json:"tenants"`
	Scheds   []sched.Checkpoint `json:"scheds"`
	L1       cache.Checkpoint   `json:"l1"`
	Groups   []GroupCheckpoint  `json:"groups"`
	MSHR     []MSHRCheckpoint   `json:"mshr"` // sorted by line address
	WB       []WBCheckpoint     `json:"wb"`
	LSUBusy  int64              `json:"lsu_busy"`
	DynProb  float64            `json:"dyn_prob"`
	RNG      uint64             `json:"rng"`
	NextDyn  int64              `json:"next_dyn"`
	Finished []int              `json:"finished,omitempty"`
	Stats    stats.SM           `json:"stats"`
}

// forEachWBOrdered visits every scheduled writeback event in a
// deterministic order: wheel slots by index, then overflow deadlines
// ascending. (Retire order within a cycle is commutative, so only
// serialization determinism requires an order here.)
func (sm *SM) forEachWBOrdered(f func(at int64, ev *wbEvent)) {
	for i := range sm.wb.slots {
		for k := range sm.wb.slots[i] {
			f(sm.wb.slotAt[i], &sm.wb.slots[i][k])
		}
	}
	if len(sm.wb.overflow) > 0 {
		ats := make([]int64, 0, len(sm.wb.overflow))
		for at := range sm.wb.overflow {
			ats = append(ats, at)
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		for _, at := range ats {
			evs := sm.wb.overflow[at]
			for k := range evs {
				f(at, &evs[k])
			}
		}
	}
}

// Checkpoint captures the SM's mutable state at a cycle boundary.
func (sm *SM) Checkpoint() Checkpoint {
	c := Checkpoint{
		Warps:   make([]WarpCheckpoint, len(sm.warps)),
		Blocks:  make([]BlockCheckpoint, len(sm.blocks)),
		Tenants: make([]TenantCheckpoint, len(sm.tens)),
		Scheds:  make([]sched.Checkpoint, len(sm.scheds)),
		L1:      sm.l1.Checkpoint(),
		LSUBusy: sm.lsuBusy,
		DynProb: sm.dynProb,
		RNG:     sm.rng,
		NextDyn: sm.nextDyn,
		Stats:   sm.Stats,
	}
	if len(sm.finished) > 0 {
		c.Finished = append([]int(nil), sm.finished...)
	}
	for i := range sm.warps {
		wc := &sm.warps[i]
		c.Warps[i] = WarpCheckpoint{
			W:            wc.w.Checkpoint(),
			Live:         wc.live,
			Finished:     wc.finished,
			AtBarrier:    wc.atBarrier,
			PendingRegs:  wc.pendingRegs,
			PendingPreds: wc.pendingPreds,
			LoadRegs:     wc.loadRegs,
			Gen:          wc.gen,
		}
	}
	for i := range sm.blocks {
		b := &sm.blocks[i]
		bc := BlockCheckpoint{
			Live:        b.live,
			CtaID:       b.ctaID,
			ActiveWarps: b.activeWarps,
			Arrived:     b.arrived,
		}
		if b.live && len(b.smem) > 0 {
			bc.Smem = append([]byte(nil), b.smem...)
		}
		c.Blocks[i] = bc
	}
	for i := range sm.tens {
		t := &sm.tens[i]
		c.Tenants[i] = TenantCheckpoint{Shr: t.shr.Checkpoint(), Stats: t.st}
	}
	for i, sc := range sm.scheds {
		c.Scheds[i] = sched.Save(sc)
	}

	// Index every live load group once, then serialize MSHR waiter lists
	// and writeback events as references into the table.
	index := make(map[*loadGroup]int)
	groupIdx := func(g *loadGroup) int {
		idx, ok := index[g]
		if !ok {
			idx = len(c.Groups)
			index[g] = idx
			c.Groups = append(c.Groups, GroupCheckpoint{
				WarpSlot: g.warpSlot, Remaining: g.remaining, RegMask: g.regMask, Gen: g.gen,
			})
		}
		return idx
	}
	for _, addr := range sm.mshr.Lines() {
		e := MSHRCheckpoint{Addr: addr}
		for _, g := range sm.mshr.Get(addr) {
			e.Groups = append(e.Groups, groupIdx(g))
		}
		c.MSHR = append(c.MSHR, e)
	}
	sm.forEachWBOrdered(func(at int64, ev *wbEvent) {
		wc := WBCheckpoint{
			At: at, WarpSlot: ev.warpSlot, Gen: ev.gen,
			RegMask: ev.regMask, PredMask: ev.predMask, Group: -1,
		}
		if ev.group != nil {
			wc.Group = groupIdx(ev.group)
		}
		c.WB = append(c.WB, wc)
	})
	return c
}

// RestoreState applies a snapshot onto a freshly constructed SM with
// identical configuration and tenant layout, as of cycle now (the cycle
// about to be simulated). Every warp is marked dirty, so the first
// scheduler refresh rebuilds the view caches and incremental rankings
// from the restored state.
func (sm *SM) RestoreState(now int64, c Checkpoint) error {
	if len(c.Warps) != len(sm.warps) {
		return fmt.Errorf("SM%d: snapshot has %d warp slots, SM has %d", sm.ID, len(c.Warps), len(sm.warps))
	}
	if len(c.Blocks) != len(sm.blocks) {
		return fmt.Errorf("SM%d: snapshot has %d block slots, SM has %d", sm.ID, len(c.Blocks), len(sm.blocks))
	}
	if len(c.Tenants) != len(sm.tens) {
		return fmt.Errorf("SM%d: snapshot has %d tenants, SM has %d", sm.ID, len(c.Tenants), len(sm.tens))
	}
	if len(c.Scheds) != len(sm.scheds) {
		return fmt.Errorf("SM%d: snapshot has %d schedulers, SM has %d", sm.ID, len(c.Scheds), len(sm.scheds))
	}
	for i := range sm.tens {
		sm.tens[i].parked = 0
	}
	for i := range sm.warps {
		wc := &sm.warps[i]
		s := &c.Warps[i]
		if err := wc.w.RestoreState(s.W); err != nil {
			return fmt.Errorf("SM%d: %w", sm.ID, err)
		}
		wc.live = s.Live
		wc.finished = s.Finished
		wc.atBarrier = s.AtBarrier
		if wc.live && wc.atBarrier {
			sm.tens[wc.tn].parked++
		}
		wc.pendingRegs = s.PendingRegs
		wc.pendingPreds = s.PendingPreds
		wc.loadRegs = s.LoadRegs
		wc.gen = s.Gen
		wc.pc = wc.nextPC()
	}
	sm.liveBlocks = 0
	for i := range sm.blocks {
		b := &sm.blocks[i]
		s := &c.Blocks[i]
		b.live = s.Live
		if b.live {
			sm.liveBlocks++
		}
		b.ctaID = s.CtaID
		b.activeWarps = s.ActiveWarps
		b.arrived = s.Arrived
		if len(s.Smem) > 0 {
			b.smem = append([]byte(nil), s.Smem...)
		}
		if !b.live {
			continue
		}
		t := &sm.tens[b.tn]
		k := t.launch.Kernel
		if k.SmemPerBlock > 0 && len(b.smem) < k.SmemPerBlock+4 {
			return fmt.Errorf("SM%d: live block slot %d has %d scratchpad bytes, kernel %s needs %d",
				sm.ID, i, len(b.smem), k.Name, k.SmemPerBlock+4)
		}
		sm.bindEnv(b)
		for wi := 0; wi < b.wpb; wi++ {
			w := sm.warps[b.warpBase+wi].w
			w.BindBlock(&b.env, w.WarpInCta)
		}
	}
	for i := range sm.tens {
		t := &sm.tens[i]
		s := &c.Tenants[i]
		if err := t.shr.RestoreState(s.Shr); err != nil {
			return fmt.Errorf("SM%d tenant %d: %w", sm.ID, t.id, err)
		}
		t.st = s.Stats
	}
	for i, sc := range sm.scheds {
		if err := sched.Restore(sc, c.Scheds[i]); err != nil {
			return fmt.Errorf("SM%d scheduler %d: %w", sm.ID, i, err)
		}
	}
	if err := sm.l1.RestoreState(c.L1); err != nil {
		return fmt.Errorf("SM%d L1: %w", sm.ID, err)
	}

	groups := make([]*loadGroup, len(c.Groups))
	refs := make([]int, len(c.Groups))
	for i, g := range c.Groups {
		if g.WarpSlot < 0 || g.WarpSlot >= len(sm.warps) {
			return fmt.Errorf("SM%d: load group %d references warp slot %d out of range", sm.ID, i, g.WarpSlot)
		}
		groups[i] = &loadGroup{warpSlot: g.WarpSlot, remaining: g.Remaining, regMask: g.RegMask, gen: g.Gen}
	}
	resolve := func(idx int) (*loadGroup, error) {
		if idx < 0 || idx >= len(groups) {
			return nil, fmt.Errorf("SM%d: load-group index %d out of range (%d groups)", sm.ID, idx, len(groups))
		}
		refs[idx]++
		return groups[idx], nil
	}
	sm.mshr = mem.NewLineTable[*loadGroup]()
	for _, e := range c.MSHR {
		if len(e.Groups) == 0 {
			return fmt.Errorf("SM%d: MSHR line %#x has no waiters", sm.ID, e.Addr)
		}
		for _, idx := range e.Groups {
			g, err := resolve(idx)
			if err != nil {
				return err
			}
			sm.mshr.Add(e.Addr, g)
		}
	}
	for _, ev := range c.WB {
		e := wbEvent{warpSlot: ev.WarpSlot, gen: ev.Gen, regMask: ev.RegMask, predMask: ev.PredMask}
		if ev.Group >= 0 {
			g, err := resolve(ev.Group)
			if err != nil {
				return err
			}
			e.group = g
		}
		sm.wb.schedule(now, ev.At, e)
	}
	for i, g := range groups {
		if refs[i] != g.remaining {
			return fmt.Errorf("SM%d: load group %d has %d outstanding lines but %d references in the snapshot",
				sm.ID, i, g.remaining, refs[i])
		}
	}

	sm.lsuBusy = c.LSUBusy
	sm.dynProb = c.DynProb
	sm.rng = c.RNG
	sm.nextDyn = c.NextDyn
	sm.finished = append([]int(nil), c.Finished...)
	sm.Stats = c.Stats
	for ws := range sm.warps {
		sm.markDirty(ws) // also drops the warp's issue card and its scheduler's census
	}
	return nil
}
