package smcore

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/mem"
	"gpushare/internal/simerr"
	"gpushare/internal/warp"
)

// Tick advances the SM one cycle: retire writebacks and memory replies,
// then let each scheduler issue at most one instruction, then classify
// the cycle as productive, stalled, or idle.
//
// The split follows the paper's definitions: a no-issue cycle is a
// *stall* (pipeline stall) when some warp was blocked structurally —
// execution-unit or LSU conflicts, MSHR exhaustion, shared-resource lock
// waits, the dynamic-warp-execution gate; it is *idle* when every warp
// had already issued its work and was only waiting for results ("all
// the available warps are issued, but no warp is ready to execute") or
// had nothing to run at all.
//
// The boolean result reports whether any scheduler issued an
// instruction this cycle; the run loop's watchdog keys off it (an SM
// only makes forward progress by issuing).
func (sm *SM) Tick(now int64) (bool, error) {
	sm.drainReplies(now)
	sm.processWritebacks(now)

	if sm.Idle() {
		return false, nil
	}
	sm.Stats.Cycles++

	issued := 0
	sawStructural := false
	memUsed := false
	sfuUsed := false

	for si, sc := range sm.scheds {
		// The reference engine ranks freshly rebuilt views with Order into
		// a per-scheduler buffer. The fast path walks the ranking of its
		// cached views through sm.walk, which computes the next candidate
		// only when the previous one did not issue.
		var order []int
		var cen *census // nil in reference mode: every warp is asked every cycle
		if sm.reference {
			order = sc.Order(sm.rebuildAll(si), sm.schedOrder[si][:0])
			sm.schedOrder[si] = order[:0]
		} else {
			cen = &sm.census[si]
			if cen.valid {
				// Nothing this scheduler ranks has changed since a walk
				// that issued nothing: if every class is still blocked,
				// this walk would only repeat that one's verdicts.
				if ok, structural := sm.replayCensus(cen, now, memUsed, sfuUsed); ok {
					sawStructural = sawStructural || structural
					continue
				}
			}
			sm.refresh(si)
			sc.Begin(sm.schedInfo[si], &sm.walk)
		}
		cacheable := cen != nil
		walked := sm.walked[:0] // every slot asked and not issued: the census's input
		for n := 0; ; n++ {
			var slot int
			if cen == nil {
				if n == len(order) {
					break
				}
				slot = order[n]
			} else if slot = sm.walk.Next(); slot < 0 {
				break
			}
			ok, cls, err := sm.tryIssue(slot, now, &memUsed, &sfuUsed)
			if err != nil {
				return false, err
			}
			if ok {
				sc.Issued(slot)
				issued++
				cacheable = false
				break
			}
			walked = append(walked, slot)
			if cls >= classClear {
				sawStructural = true
			}
			if cls == classNone || cls == classUncached {
				cacheable = false
			}
		}
		sm.walked = walked
		if cen != nil {
			cen.valid = cacheable && sm.takeCensus(cen, si, walked)
		}
	}

	if issued == 0 {
		if sawStructural {
			sm.Stats.StallCycles++
		} else {
			sm.Stats.IdleCycles++
		}
	}
	for i := range sm.tens {
		if t := &sm.tens[i]; t.parked != 0 {
			sm.Stats.BarrierWaits += int64(t.parked)
			t.st.BarrierWaits += int64(t.parked)
		}
	}
	return issued > 0, nil
}

// dependencyMasks returns the GPR and predicate scoreboard bits the
// instruction depends on (sources and destinations, for RAW and WAW).
func dependencyMasks(in *isa.Instr) (regs uint64, preds uint8) {
	var buf [4]int
	for _, r := range in.Regs(buf[:0]) {
		regs |= 1 << uint(r)
	}
	if in.Guarded() {
		preds |= 1 << uint(in.GuardPred)
	}
	if in.Dst.Kind == isa.OpPred {
		preds |= 1 << in.Dst.Reg
	}
	if in.Op == isa.SELP {
		preds |= 1 << in.C.Reg
	}
	return regs, preds
}

// tryIssue attempts to issue the next instruction of warp slot ws.
// It returns (issued, class, err): class says why a candidate warp
// could not issue (cards.go) — classScoreboard is a data wait, every
// higher class a structural block, which drives the stall/idle split;
// a non-nil error is a functional execution fault that aborts the run.
func (sm *SM) tryIssue(ws int, now int64, memUsed, sfuUsed *bool) (bool, uint8, error) {
	if !sm.reference {
		if cls := sm.cardVerdict(ws, now, *memUsed, *sfuUsed); cls != classNone {
			return false, cls, nil
		}
	}
	wc := &sm.warps[ws]
	if !wc.live || wc.finished || wc.atBarrier {
		return false, classNone, nil
	}
	pc := wc.pc
	if pc < 0 {
		return false, classNone, nil
	}
	t := &sm.tens[wc.tn]
	me := &t.meta[pc]

	// Scoreboard: RAW on pending writes, WAW on the destination. The
	// warp has issued everything before this instruction and waits for
	// a result: a data wait, not a pipeline stall.
	if me.regMask&wc.pendingRegs != 0 || me.predMask&wc.pendingPreds != 0 {
		return false, sm.block(ws, wc.tn, classScoreboard, reasonScoreboard), nil
	}

	// Structural hazards: execution unit, LSU, MSHR file.
	cls := classClear + me.kind<<1
	if r := sm.classReason(cls, now, *memUsed, *sfuUsed); r != reasonNone {
		return false, sm.block(ws, wc.tn, cls, r), nil
	}

	bs := wc.w.BlockSlot
	b := &sm.blocks[bs]
	ls := bs - t.blockBase

	// Register sharing: instructions touching the shared register pool
	// need the warp-pair lock (Fig. 3). A successful acquire can change
	// pair ownership, which changes the Category of every warp on both
	// sides — the epoch comparison catches that and dirties the pair.
	if t.shr.RegLockNeededStatic(ls, me.flags&metaSharedPool != 0) {
		epoch := t.shr.Epoch()
		if !t.shr.TryAcquireReg(ls, wc.w.WarpInCta) {
			return false, sm.block(ws, wc.tn, cls|classLockWait, reasonLockWait), nil
		}
		if t.shr.Epoch() != epoch {
			sm.markPairDirty(bs)
		}
	}

	// Scratchpad sharing: accesses into the shared region need the
	// block-pair lock (Fig. 4). The effective addresses are computed
	// once here and serve the lock check, the executor and the
	// bank-conflict model.
	var smemAddrs *isa.Row
	var smemActive uint32
	if me.flags&metaSharedMem != 0 {
		smemAddrs = &sm.smemAddrs
		smemActive = wc.w.EffAddrs(&me.op, smemAddrs)
		if t.shr.SmemNeedsLock(ls, smemAddrs, smemActive) {
			epoch := t.shr.Epoch()
			if !t.shr.TryAcquireSmem(ls) {
				sm.Stats.BlockLockWait++
				t.st.BlockLockWait++
				sm.Stats.SharedMemWaits++
				return false, classUncached, nil
			}
			if t.shr.Epoch() != epoch {
				sm.markPairDirty(bs)
			}
		}
	}

	// Dynamic warp execution: probabilistically gate global-memory
	// instructions from non-owner warps (§IV-C).
	if sm.cfg.DynWarp && me.flags&metaGlobalMem != 0 &&
		t.shr.Category(ls) == core.CatNonOwner {
		if sm.dynProb <= 0 || sm.randFloat() >= sm.dynProb {
			sm.Stats.BlockDynGate++
			t.st.BlockDynGate++
			return false, classUncached, nil
		}
	}

	// All checks passed: execute functionally and model timing. The PC
	// and the scoreboard are about to move, so the card goes first.
	sm.cards[ws].class = classNone
	res, err := wc.w.Execute(&me.op, &b.env, smemAddrs)
	wc.pc = wc.nextPC()
	if err != nil {
		return false, classNone, &simerr.SimError{
			Kind: simerr.KindExec, Cycle: now, SM: sm.ID, Warp: ws,
			Msg: fmt.Sprintf("functional fault executing pc %d (%s)", pc, t.launch.Kernel.Instrs[pc].String()), Err: err,
		}
	}
	sm.Stats.WarpInstrs++
	t.st.WarpInstrs++
	active := int64(warp.PopCount(res.Active))
	sm.Stats.ThreadInstrs += active
	t.st.ThreadInstrs += active

	switch op := me.op.Code; {
	case res.Kind == warp.ResBarrier:
		if !res.Finished {
			wc.atBarrier = true
			t.parked++
			if sm.faults.Trip(fault.SkipBarrierArrival, now, sm.ID, ws,
				"warp parked at barrier without incrementing the arrival count") {
				break // injected fault: the block's barrier can never release
			}
			b.arrived++
			sm.checkBarrier(bs)
		}
	case op == isa.BRA, op == isa.EXIT, op == isa.NOP:
		// Control instructions retire immediately.
	case me.flags&metaSharedMem != 0:
		*memUsed = true
		deg := mem.BankConflictDegree(smemAddrs, smemActive, sm.cfg.SmemBanks)
		sm.Stats.BankConflicts += int64(deg - 1)
		sm.lsuBusy = now + int64(deg-1)
		if op == isa.LDS {
			lat := int64(sm.cfg.SmemLat + deg - 1)
			sm.scheduleWB(now, now+lat, ws, wc.gen, me.dstRegMask, 0, nil)
			wc.pendingRegs |= me.dstRegMask
		}
	case op == isa.LDG:
		*memUsed = true
		sm.issueGlobalLoad(ws, wc, me.dstRegMask, res, now)
	case op == isa.STG:
		*memUsed = true
		sm.issueGlobalStore(res, now)
	default:
		// SP / SFU arithmetic: unit, latency (incl. register-file bank
		// conflicts), and destination masks all come from the table.
		if me.kind == kindSFU {
			*sfuUsed = true
		}
		if me.dstRegMask != 0 || me.dstPredMask != 0 {
			wc.pendingRegs |= me.dstRegMask
			wc.pendingPreds |= me.dstPredMask
			sm.scheduleWB(now, now+me.lat, ws, wc.gen, me.dstRegMask, me.dstPredMask, nil)
		}
	}

	if res.Finished {
		sm.warpFinished(ws)
		if sm.faults.Trip(fault.StaleSnapshot, now, sm.ID, ws,
			"warp finished but its scheduler snapshot was not invalidated") {
			// Injected fault: the scheduler keeps a ready snapshot for a
			// finished warp. The snapshot auditor must catch this.
			return true, classNone, nil
		}
	}
	sm.patchView(ws, now)
	return true, classNone, nil
}

// issueGlobalLoad coalesces a load into line transactions and routes each
// through the L1 / MSHR / memory system.
func (sm *SM) issueGlobalLoad(ws int, wc *warpCtx, dstMask uint64, res warp.Result, now int64) {
	lines := mem.Coalesce(res.GlobalAddrs, res.Active, sm.cfg.L1LineSz, sm.lineBuf[:0])
	sm.lineBuf = lines[:0]
	sm.Stats.CoalescedAccess += int64(len(lines))
	if len(lines) == 0 { // fully guarded off
		wc.pendingRegs |= dstMask
		sm.scheduleWB(now, now+1, ws, wc.gen, dstMask, 0, nil)
		return
	}
	wc.pendingRegs |= dstMask
	wc.loadRegs |= dstMask
	group := sm.allocGroup(ws, len(lines), dstMask, wc.gen)
	for _, line := range lines {
		if sm.cfg.L1Disable {
			sm.sendOrMerge(line, group, now)
			continue
		}
		if sm.l1.Probe(line) {
			sm.scheduleWB(now, now+int64(sm.cfg.L1HitLat), ws, wc.gen, 0, 0, group)
			continue
		}
		sm.sendOrMerge(line, group, now)
	}
}

// sendOrMerge allocates an MSHR entry for the line or merges into an
// outstanding one.
func (sm *SM) sendOrMerge(line uint32, group *loadGroup, now int64) {
	if !sm.mshr.Add(line, group) {
		sm.l1.Stats.MSHRMerg++
		return
	}
	sm.sendLine(line, false, now)
}

// sendLine injects one line transaction into the memory system.
func (sm *SM) sendLine(line uint32, isWrite bool, now int64) {
	sm.memSys.Send(mem.LineRequest{LineAddr: line, IsWrite: isWrite, SM: sm.ID}, now)
}

// issueGlobalStore applies the write-evict L1 policy and forwards write
// traffic to the memory system. Stores retire immediately (no fence).
func (sm *SM) issueGlobalStore(res warp.Result, now int64) {
	lines := mem.Coalesce(res.GlobalAddrs, res.Active, sm.cfg.L1LineSz, sm.lineBuf[:0])
	sm.lineBuf = lines[:0]
	sm.Stats.CoalescedAccess += int64(len(lines))
	for _, line := range lines {
		if !sm.cfg.L1Disable {
			sm.l1.Probe(line)
			sm.l1.Invalidate(line)
		}
		sm.sendLine(line, true, now)
	}
}

// scheduleWB enqueues a writeback event on the timing wheel.
func (sm *SM) scheduleWB(now, at int64, ws int, gen uint32, regs uint64, preds uint8, group *loadGroup) {
	sm.wb.schedule(now, at, wbEvent{
		warpSlot: ws, gen: gen, regMask: regs, predMask: preds, group: group,
	})
}

// processWritebacks retires the events scheduled for this cycle.
func (sm *SM) processWritebacks(now int64) {
	i := now & (wbWheelSize - 1)
	if len(sm.wb.slots[i]) > 0 && sm.wb.slotAt[i] == now {
		evs := sm.wb.slots[i]
		sm.wb.count -= len(evs)
		for k := range evs {
			sm.retireWB(&evs[k], now)
		}
		sm.wb.slots[i] = evs[:0] // reuse the bucket's backing array
	}
	if len(sm.wb.overflow) > 0 {
		if evs, ok := sm.wb.overflow[now]; ok {
			delete(sm.wb.overflow, now)
			sm.wb.count -= len(evs)
			for k := range evs {
				sm.retireWB(&evs[k], now)
			}
		}
	}
}

// retireWB applies one writeback event.
func (sm *SM) retireWB(ev *wbEvent, now int64) {
	if ev.group != nil {
		sm.completeGroupPart(ev.group, now)
		return
	}
	wc := &sm.warps[ev.warpSlot]
	if wc.gen != ev.gen {
		return // slot was recycled; the event belongs to a dead warp
	}
	wc.pendingRegs &^= ev.regMask
	wc.pendingPreds &^= ev.predMask
	// The StaleCard fault only takes opportunities where it matters: the
	// card says "scoreboard" and this writeback landed the last operand.
	if sm.faults.Armed(fault.StaleCard) && sm.cards[ev.warpSlot].class == classScoreboard &&
		sm.scoreboardClear(ev.warpSlot) &&
		sm.faults.Trip(fault.StaleCard, now, sm.ID, ev.warpSlot,
			"writeback landed the warp's last operand but its issue card was not invalidated") {
		return // injected fault: the warp stays "scoreboard-blocked"
	}
	sm.invalidateCard(ev.warpSlot)
}

// completeGroupPart retires one line of a load group, clearing the
// destination scoreboard bits when the last line lands and recycling the
// group once no references to it remain.
func (sm *SM) completeGroupPart(g *loadGroup, now int64) {
	g.remaining--
	if g.remaining > 0 {
		return
	}
	wc := &sm.warps[g.warpSlot]
	if wc.gen == g.gen {
		wc.pendingRegs &^= g.regMask
		wc.loadRegs &^= g.regMask
		// loadRegs feeds WaitingLong: the warp's scheduler view changed.
		sm.patchView(g.warpSlot, now)
	}
	// remaining counted the outstanding references (MSHR waiters and
	// queued writebacks); at zero the group is unreachable and reusable.
	sm.groupFree = append(sm.groupFree, g)
}

// drainReplies pulls at most one memory reply per cycle (reply-network
// ejection bandwidth), fills the L1, and completes merged loads.
func (sm *SM) drainReplies(now int64) {
	req, ok := sm.memSys.PopReply(sm.ID, now)
	if !ok {
		return
	}
	if sm.faults.Armed(fault.DropMemReply) && sm.faults.Trip(fault.DropMemReply, now, sm.ID, -1,
		fmt.Sprintf("discarded reply for line %#x; its load group never completes", req.LineAddr)) {
		return // injected fault: the reply vanishes between networks and MSHR
	}
	if !sm.cfg.L1Disable {
		sm.l1.Fill(req.LineAddr)
	}
	for _, g := range sm.mshr.Take(req.LineAddr) {
		sm.completeGroupPart(g, now)
	}
}

// checkBarrier releases the block's barrier once every unfinished warp
// has arrived (finished warps do not participate, as in CUDA).
func (sm *SM) checkBarrier(bs int) {
	b := &sm.blocks[bs]
	if !b.live || b.arrived < b.activeWarps {
		return
	}
	b.arrived = 0
	for wi := 0; wi < b.wpb; wi++ {
		wc := &sm.warps[b.warpBase+wi]
		if wc.live && !wc.finished {
			if wc.atBarrier {
				wc.atBarrier = false
				sm.tens[b.tn].parked--
			}
			sm.markDirty(b.warpBase + wi)
		}
	}
}

// warpFinished handles a warp's completion: sharing locks release, the
// block's barrier may unblock, and the block may complete (what it held
// is released by construction: it is no longer live).
func (sm *SM) warpFinished(ws int) {
	wc := &sm.warps[ws]
	wc.finished = true
	bs := wc.w.BlockSlot
	b := &sm.blocks[bs]
	t := &sm.tens[b.tn]
	ls := bs - t.blockBase
	t.shr.ReleaseReg(ls, wc.w.WarpInCta)
	b.activeWarps--
	if b.activeWarps > 0 {
		sm.checkBarrier(bs)
		return
	}
	// Block complete.
	b.live = false
	sm.liveBlocks--
	partner := t.shr.PartnerSlot(ls)
	partnerLive := partner >= 0 && sm.blocks[t.blockBase+partner].live
	epoch := t.shr.Epoch()
	t.shr.BlockFinished(ls, partnerLive)
	if t.shr.Epoch() != epoch && partnerLive {
		// Ownership transferred: the partner block's warps changed
		// Category. The finishing block's own warps are all finished
		// (HasWork false regardless of Category) and are dirtied by
		// their own finishing issue.
		sm.markBlockDirty(t.blockBase + partner)
	}
	t.st.BlocksCompleted++
	sm.finished = append(sm.finished, bs)
}

// FinalizeStats copies sharing-manager counters into the SM statistics.
func (sm *SM) FinalizeStats() {
	sm.Stats.LockAcquires = 0
	sm.Stats.OwnershipXfers = 0
	for i := range sm.tens {
		sm.Stats.LockAcquires += sm.tens[i].shr.LockAcquires
		sm.Stats.OwnershipXfers += sm.tens[i].shr.OwnershipXfers
	}
	sm.Stats.DynProbFinal = sm.dynProb
}

// rfConflictCycles returns the extra operand-read cycles caused by
// register-file bank conflicts (Fig. 3's banked register file), when the
// model is enabled: source registers mapping to the same bank serialize.
func rfConflictCycles(cfg *config.Config, in *isa.Instr) int64 {
	nb := cfg.RFBanks
	if nb <= 0 {
		return 0
	}
	var buf [3]int
	srcs := in.SrcRegs(buf[:0])
	if len(srcs) < 2 {
		return 0
	}
	var seen uint64
	extra := int64(0)
	for _, r := range srcs {
		bank := uint64(1) << uint(r%nb)
		if seen&bank != 0 {
			extra++
		}
		seen |= bank
	}
	return extra
}
