package smcore

import (
	"fmt"

	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/simerr"
)

// AuditSharing verifies each tenant's sharing-manager lease accounting
// against that tenant's block liveness (no lost or double lease
// release, Fig. 5 exclusion, ownership held only by live blocks).
func (sm *SM) AuditSharing() error {
	for ti := range sm.tens {
		t := &sm.tens[ti]
		base := t.blockBase
		live := func(slot int) bool { return sm.blocks[base+slot].live }
		if err := t.shr.Audit(live); err != nil {
			return fmt.Errorf("SM%d tenant %d: %w", sm.ID, t.id, err)
		}
	}
	return nil
}

// AuditBarriers verifies every live block's barrier bookkeeping: the
// active-warp count matches the live unfinished warps, and the arrival
// count matches the warps actually parked at the barrier. A mismatch
// means a barrier release was missed or an arrival was lost — the block
// would hang forever.
func (sm *SM) AuditBarriers() error {
	for bs := range sm.blocks {
		b := &sm.blocks[bs]
		if !b.live {
			continue
		}
		nLive, nParked := 0, 0
		for wi := 0; wi < b.wpb; wi++ {
			wc := &sm.warps[b.warpBase+wi]
			if !wc.live || wc.finished {
				continue
			}
			nLive++
			if wc.atBarrier {
				nParked++
			}
		}
		if b.activeWarps != nLive {
			return fmt.Errorf("SM%d block slot %d (CTA %d): activeWarps=%d but %d live unfinished warps",
				sm.ID, bs, b.ctaID, b.activeWarps, nLive)
		}
		if b.arrived != nParked {
			return fmt.Errorf("SM%d block slot %d (CTA %d): barrier arrival count %d but %d warps parked at the barrier (lost arrival)",
				sm.ID, bs, b.ctaID, b.arrived, nParked)
		}
		if nLive > 0 && b.arrived >= nLive {
			return fmt.Errorf("SM%d block slot %d (CTA %d): barrier complete (%d/%d) but not released",
				sm.ID, bs, b.ctaID, b.arrived, nLive)
		}
	}
	for ti := range sm.tens {
		t := &sm.tens[ti]
		nParked := 0
		for wi := 0; wi < t.nBlocks*t.wpb; wi++ {
			if wc := &sm.warps[t.warpBase+wi]; wc.live && wc.atBarrier {
				nParked++
			}
		}
		if t.parked != nParked {
			return fmt.Errorf("SM%d tenant %d: parked-warp count %d but %d warps parked at a barrier (BarrierWaits would drift)",
				sm.ID, t.id, t.parked, nParked)
		}
	}
	return nil
}

// AuditScoreboard verifies scoreboard conservation: every pending
// register or predicate bit of a live warp must be covered by an
// in-flight writeback event or an outstanding load group, and every
// queued writeback must still be in the future. A pending bit with no
// producer means a result was lost — the warp would wait forever.
func (sm *SM) AuditScoreboard(now int64) error {
	covered := make(map[int]uint64)
	coveredP := make(map[int]uint8)
	cover := func(ws int, gen uint32, regs uint64, preds uint8) {
		if sm.warps[ws].gen == gen {
			covered[ws] |= regs
			coveredP[ws] |= preds
		}
	}
	var staleAt int64 = -1
	sm.wb.forEach(func(at int64, ev *wbEvent) {
		if at <= now && staleAt < 0 {
			staleAt = at
		}
		if ev.group != nil {
			cover(ev.group.warpSlot, ev.group.gen, ev.group.regMask, 0)
			return
		}
		cover(ev.warpSlot, ev.gen, ev.regMask, ev.predMask)
	})
	if staleAt >= 0 {
		return fmt.Errorf("SM%d: writeback event scheduled for cycle %d never fired (now %d)", sm.ID, staleAt, now)
	}
	sm.mshr.ForEach(func(_ uint32, groups []*loadGroup) {
		for _, g := range groups {
			cover(g.warpSlot, g.gen, g.regMask, 0)
		}
	})
	for ws := range sm.warps {
		wc := &sm.warps[ws]
		if !wc.live || wc.finished {
			continue
		}
		if orphan := wc.loadRegs &^ wc.pendingRegs; orphan != 0 {
			return fmt.Errorf("SM%d warp %d: load regs %#x not marked pending", sm.ID, ws, orphan)
		}
		if orphan := wc.pendingRegs &^ covered[ws]; orphan != 0 {
			return fmt.Errorf("SM%d warp %d: pending regs %#x have no in-flight producer (lost writeback or dropped memory reply)",
				sm.ID, ws, orphan)
		}
		if orphan := wc.pendingPreds &^ coveredP[ws]; orphan != 0 {
			return fmt.Errorf("SM%d warp %d: pending predicates %#x have no in-flight producer", sm.ID, ws, orphan)
		}
	}
	return nil
}

// AuditSIMT verifies every live warp's reconvergence stack.
func (sm *SM) AuditSIMT() error {
	for ws := range sm.warps {
		wc := &sm.warps[ws]
		if !wc.live || wc.finished {
			continue
		}
		if err := wc.w.AuditSIMT(); err != nil {
			return fmt.Errorf("SM%d: %w", sm.ID, err)
		}
	}
	return nil
}

// ForEachMSHRLine calls f with every line address this SM has an
// outstanding L1 miss for. The invariant auditor matches these against
// the memory system's in-flight reads (request conservation).
func (sm *SM) ForEachMSHRLine(f func(line uint32)) {
	sm.mshr.ForEach(func(line uint32, _ []*loadGroup) { f(line) })
}

// HasMSHRLine reports whether the SM has an outstanding miss for line.
func (sm *SM) HasMSHRLine(line uint32) bool {
	return sm.mshr.Get(line) != nil
}

// Forensics captures this SM's state for a forensic dump: every live
// warp's PC, current instruction, stall reason, barrier and scoreboard
// state, SIMT depth, and sharing role. Read-only.
func (sm *SM) Forensics(now int64) simerr.SMDump {
	d := simerr.SMDump{
		ID:           sm.ID,
		ActiveBlocks: sm.ActiveBlocks(),
		DynProb:      sm.dynProb,
		MSHRLines:    sm.mshr.Len(),
	}
	d.PendingWB = sm.wb.count
	for ws := range sm.warps {
		wc := &sm.warps[ws]
		if !wc.live {
			continue
		}
		if wc.finished {
			d.FinishedWarps++
			continue
		}
		b := &sm.blocks[wc.w.BlockSlot]
		t := &sm.tens[b.tn]
		wd := simerr.WarpDump{
			Slot:        ws,
			BlockSlot:   wc.w.BlockSlot,
			CTA:         b.ctaID,
			WarpInCta:   wc.w.WarpInCta,
			Category:    t.shr.Category(wc.w.BlockSlot - t.blockBase).String(),
			SIMTDepth:   wc.w.SIMTDepth(),
			AtBarrier:   wc.atBarrier,
			Arrived:     b.arrived,
			ActiveWarps: b.activeWarps,
			PendingRegs: wc.pendingRegs,
			LoadRegs:    wc.loadRegs,
		}
		if pc, _, ok := wc.w.PC(); ok {
			wd.PC = pc
			wd.Instr = t.launch.Kernel.Instrs[pc].String()
		}
		wd.Stall = sm.stallReason(ws, now)
		d.Warps = append(d.Warps, wd)
	}
	return d
}

// scoreboardWait is the stall probe's scoreboard check: the pending
// registers in needs, and whether it needs a pending predicate, from an
// operand walk rather than the metadata table. The card audit shares it.
func scoreboardWait(wc *warpCtx, in *isa.Instr) (regs uint64, preds bool) {
	needRegs, needPreds := dependencyMasks(in)
	return needRegs & wc.pendingRegs, needPreds&wc.pendingPreds != 0
}

// scoreboardClear reports whether warp ws's next instruction has no
// scoreboard wait left, by the same operand walk.
func (sm *SM) scoreboardClear(ws int) bool {
	wc := &sm.warps[ws]
	pc, _, ok := wc.w.PC()
	if !ok {
		return false
	}
	regs, preds := scoreboardWait(wc, &sm.tens[wc.tn].launch.Kernel.Instrs[pc])
	return regs == 0 && !preds
}

// stallReason classifies, without mutating any state, why a live warp
// cannot issue right now. It mirrors tryIssue's checks using the
// read-only lock probes.
func (sm *SM) stallReason(ws int, now int64) string {
	wc := &sm.warps[ws]
	if wc.atBarrier {
		b := &sm.blocks[wc.w.BlockSlot]
		return fmt.Sprintf("barrier: %d/%d warps arrived", b.arrived, b.activeWarps)
	}
	pc, _, ok := wc.w.PC()
	if !ok {
		return ""
	}
	bs := wc.w.BlockSlot
	t := &sm.tens[sm.blocks[bs].tn]
	ls := bs - t.blockBase
	in := &t.launch.Kernel.Instrs[pc]
	if hit, hitPreds := scoreboardWait(wc, in); hit != 0 {
		if hit&wc.loadRegs != 0 {
			return fmt.Sprintf("scoreboard: waiting on in-flight global load (regs %#x)", hit)
		}
		return fmt.Sprintf("scoreboard: waiting on writeback (regs %#x)", hit)
	} else if hitPreds {
		return "scoreboard: waiting on predicate writeback"
	}
	if isa.UnitOf(in.Op) == isa.UnitMEM {
		if now < sm.lsuBusy {
			return fmt.Sprintf("LSU busy until cycle %d", sm.lsuBusy)
		}
		if isa.IsGlobalMem(in.Op) && sm.mshr.Len() >= sm.cfg.L1MSHRs {
			return fmt.Sprintf("MSHR full (%d lines outstanding)", sm.mshr.Len())
		}
	}
	if t.shr.RegNeedsLock(ls, in) && t.shr.WouldBlockReg(ls, wc.w.WarpInCta) {
		return "shared-register lock held by partner block (Fig. 5 wait)"
	}
	if isa.IsSharedMem(in.Op) {
		var addrs isa.Row
		active := wc.w.EffAddrs(&t.meta[pc].op, &addrs)
		if t.shr.SmemNeedsLock(ls, &addrs, active) && t.shr.WouldBlockSmem(ls) {
			return "scratchpad lock held by partner block (Fig. 4 wait)"
		}
	}
	if sm.cfg.DynWarp && isa.IsGlobalMem(in.Op) && t.shr.Category(ls) == core.CatNonOwner && sm.dynProb < 1 {
		return fmt.Sprintf("dynamic warp execution throttle (p=%.2f)", sm.dynProb)
	}
	return "ready"
}
