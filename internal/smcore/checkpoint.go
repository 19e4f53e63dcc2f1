package smcore

import (
	"fmt"

	"gpushare/internal/core"
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
// the censuses (emptied, then rebuilt warp by warp by the same
// refreshes), each warp's cached next PC (re-read from the
// restored SIMT stack), the load-line counts (recounted from the MSHR
// waiters and the load-line writebacks), the static issue metadata, and
// the free lists (allocation identity is not machine state).

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
// the live slots.
type TenantCheckpoint struct {
	Shr   core.ManagerCheckpoint `json:"shr"`
	Stats stats.Tenant           `json:"stats"`
}

// MSHRCheckpoint is one L1 MSHR line with the load lines waiting on it,
// in merge order.
type MSHRCheckpoint struct {
	Addr  uint32    `json:"addr"`
	Loads []LoadRef `json:"loads"`
}

// WBCheckpoint is one scheduled writeback event with its absolute
// deadline. Load marks one line of a global load that hit in the L1:
// RegMask is then the load's destination bit.
type WBCheckpoint struct {
	At       int64  `json:"at"`
	WarpSlot int    `json:"warp_slot"`
	Gen      uint32 `json:"gen"`
	RegMask  uint64 `json:"reg_mask"`
	PredMask uint8  `json:"pred_mask"`
	Load     bool   `json:"load,omitempty"`
}

// Checkpoint is one SM's complete mutable state.
type Checkpoint struct {
	Warps    []WarpCheckpoint   `json:"warps"`
	Blocks   []BlockCheckpoint  `json:"blocks"`
	Tenants  []TenantCheckpoint `json:"tenants"`
	Scheds   []sched.Checkpoint `json:"scheds"`
	L1       cache.Checkpoint   `json:"l1"`
	MSHR     []MSHRCheckpoint   `json:"mshr"` // sorted by line address
	WB       []WBCheckpoint     `json:"wb"`
	LSUBusy  int64              `json:"lsu_busy"`
	DynProb  float64            `json:"dyn_prob"`
	RNG      uint64             `json:"rng"`
	NextDyn  int64              `json:"next_dyn"`
	Finished []int              `json:"finished,omitempty"`
	Stats    stats.SM           `json:"stats"`
}

// ckView is the storage SM.Checkpoint refreshes in place: the view's
// per-slot lists, sized once at the first capture, and the MSHR and
// writeback lists with the MSHR waiters, which keep their capacity.
type ckView struct {
	c     Checkpoint
	mshr  []MSHRCheckpoint
	loads []LoadRef
	wb    []WBCheckpoint
	lines []uint32
}

// Checkpoint returns a view of the SM's mutable state at a cycle
// boundary. Register files, scratchpads, the L1 tag array, the sharing
// managers' warp locks and the finished-slot list are aliased, not
// copied, and the view's lists are the SM's own, refreshed by every
// call, so the view is valid until the SM next ticks, launches a block
// or is checkpointed again: serialize it before the machine moves on.
func (sm *SM) Checkpoint() Checkpoint {
	v := sm.view
	if v == nil {
		v = &ckView{c: Checkpoint{
			Warps:   make([]WarpCheckpoint, len(sm.warps)),
			Blocks:  make([]BlockCheckpoint, len(sm.blocks)),
			Tenants: make([]TenantCheckpoint, len(sm.tens)),
			Scheds:  make([]sched.Checkpoint, len(sm.scheds)),
		}}
		sm.view = v
	}
	c := &v.c
	c.L1 = sm.l1.Checkpoint()
	c.LSUBusy, c.DynProb, c.RNG, c.NextDyn, c.Stats = sm.lsuBusy, sm.dynProb, sm.rng, sm.nextDyn, sm.Stats
	c.Finished = nil
	if len(sm.finished) > 0 {
		c.Finished = sm.finished
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
			bc.Smem = b.smem
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

	v.lines = sm.mshr.AppendLines(v.lines[:0])
	v.mshr, v.loads = v.mshr[:0], v.loads[:0]
	for _, addr := range v.lines {
		from := len(v.loads)
		v.loads = append(v.loads, sm.mshr.Get(addr)...)
		// A later append may move v.loads; this entry keeps the array
		// it was written into, which nothing writes again until the
		// next capture.
		v.mshr = append(v.mshr, MSHRCheckpoint{Addr: addr, Loads: v.loads[from:len(v.loads):len(v.loads)]})
	}
	v.wb = v.wb[:0]
	sm.wb.forEach(func(at int64, ev *wbEvent) {
		v.wb = append(v.wb, WBCheckpoint{
			At: at, WarpSlot: int(ev.warpSlot), Gen: ev.gen,
			RegMask: ev.regMask, PredMask: ev.predMask, Load: ev.load,
		})
	})
	// An empty list serializes as null, as one appended from nil does.
	c.MSHR, c.WB = nil, nil
	if len(v.mshr) > 0 {
		c.MSHR = v.mshr
	}
	if len(v.wb) > 0 {
		c.WB = v.wb
	}
	return *c
}

// RestoreView returns a snapshot whose warps' register files,
// predicates and SIMT stacks and whose L1 tag array are the SM's own
// storage (warp.State.RestoreView, cache.Cache.RestoreView), for a
// decoder to fill in place; RestoreState then copies them onto
// themselves. Only an SM built for this restore may hand them out: a
// decode that is later rejected leaves them half written.
func (sm *SM) RestoreView() Checkpoint {
	c := Checkpoint{Warps: make([]WarpCheckpoint, len(sm.warps)), L1: sm.l1.RestoreView()}
	for i := range sm.warps {
		c.Warps[i].W = sm.warps[i].w.RestoreView()
	}
	return c
}

// RestoreState applies a snapshot onto a freshly constructed SM with
// identical configuration and tenant layout, as of cycle now (the cycle
// about to be simulated). Every warp is marked dirty, so the first
// scheduler refresh rebuilds the view caches and incremental rankings
// from the restored state. The SM adopts the snapshot's scratchpads and
// finished-slot list instead of copying them — c is decoded for this
// restore and nothing else holds it — so c must not be used afterwards;
// a snapshot decoded into RestoreView's storage is copied onto itself.
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
			b.smem = s.Smem
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

	// The line counts are recounted from the load lines just restored
	// (which recountLines validates), so no count can disagree with them.
	sm.mshr.Reset()
	for _, e := range c.MSHR {
		if len(e.Loads) == 0 {
			return fmt.Errorf("SM%d: MSHR line %#x has no waiters", sm.ID, e.Addr)
		}
		for _, r := range e.Loads {
			sm.mshr.Add(e.Addr, r)
		}
	}
	for i, ev := range c.WB {
		if ev.WarpSlot < 0 || ev.WarpSlot >= len(sm.warps) {
			return fmt.Errorf("SM%d: writeback %d references warp slot %d out of range", sm.ID, i, ev.WarpSlot)
		}
		// The wheel fires a slot only on its own cycle: a deadline
		// before now would strand its warp until the watchdog, and one a
		// span or more ahead would share a slot with a nearer deadline.
		if ev.At < now {
			return fmt.Errorf("SM%d: writeback %d is due at cycle %d, before the restore cycle %d", sm.ID, i, ev.At, now)
		}
		if ev.At-now >= wbWheelSize {
			return fmt.Errorf("SM%d: writeback %d is due at cycle %d, %d or more cycles after the restore cycle %d",
				sm.ID, i, ev.At, wbWheelSize, now)
		}
		if ev.Load && ev.PredMask != 0 {
			return fmt.Errorf("SM%d: load-line writeback %d writes predicates %#x", sm.ID, i, ev.PredMask)
		}
		sm.wb.schedule(ev.At, wbEvent{
			warpSlot: int32(ev.WarpSlot), gen: ev.Gen, regMask: ev.RegMask, predMask: ev.PredMask, load: ev.Load,
		})
	}
	if err := sm.recountLines(sm.lineCount); err != nil {
		return err
	}

	for _, slot := range c.Finished {
		if slot < 0 || slot >= len(sm.blocks) {
			return fmt.Errorf("SM%d: finished block slot %d out of range", sm.ID, slot)
		}
	}

	sm.lsuBusy = c.LSUBusy
	sm.dynProb = c.DynProb
	sm.rng = c.RNG
	sm.nextDyn = c.NextDyn
	sm.finished = c.Finished
	sm.Stats = c.Stats
	// Every warp is queued, and its refresh classifies it into a census
	// emptied here.
	for si := range sm.census {
		sm.resetCensus(si)
	}
	for ws := range sm.warps {
		sm.markDirty(ws)
	}
	return nil
}
