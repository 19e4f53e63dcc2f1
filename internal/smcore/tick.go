package smcore

import (
	"fmt"
	"math/bits"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/mem"
	"gpushare/internal/sched"
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
	if sm.wb.due(now) {
		sm.processWritebacks(now)
	}

	if sm.Idle() {
		return false, nil
	}
	sm.Stats.Cycles++

	issued := 0
	sawStructural := false
	memUsed := false
	sfuUsed := false

	for si, sc := range sm.scheds {
		var ok, structural bool
		var err error
		if sm.reference {
			// The reference engine ranks freshly rebuilt views with Order
			// into a per-scheduler buffer and asks every warp in full.
			order := sc.Order(sm.rebuildAll(si), sm.schedOrder[si][:0])
			sm.schedOrder[si] = order[:0]
			for _, slot := range order {
				var blocked bool
				if ok, blocked, err = sm.tryIssue(slot, now, &memUsed, &sfuUsed); ok || err != nil {
					if ok {
						sc.Issued(slot, int(sm.slotPos[slot]))
					}
					break
				}
				structural = structural || blocked
			}
		} else {
			// The census: ask only the warps that can issue.
			if len(sm.dirtyList[si]) != 0 {
				sm.refresh(si)
			}
			c := &sm.census[si]
			var srt sorting
			sm.sort(c, &srt, now, memUsed, sfuUsed)
			if srt.try != 0 || sm.rankAlways {
				sc.Begin(sm.schedInfo[si], &sm.rank)
			}
			if srt.try == 0 {
				// Nobody can issue: the census answers the whole cycle.
				structural = sm.charge(c, ^uint64(0), &srt)
			} else {
				ok, structural, err = sm.walk(si, sc, c, &srt, now, &memUsed, &sfuUsed)
			}
		}
		if err != nil {
			return false, err
		}
		if ok {
			issued++
		}
		sawStructural = sawStructural || structural
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

// walk asks the warps of srt.try of scheduler si's census c, run by
// run in the ranking Begin wrote into sm.rank — from the register lock
// on — and stops at the first that issues; every warp the ranking put
// before that one and the walk did not ask is charged by popcount
// (charge). It reports whether a warp issued and whether any block on
// the way was structural.
func (sm *SM) walk(si int, sc sched.Scheduler, c *census, srt *sorting, now int64, memUsed, sfuUsed *bool) (issued, structural bool, err error) {
	var passed uint64
	for _, rg := range sm.rank.Ranges() {
		run := span(int(rg.Lo), int(rg.Hi))
		for m := run & srt.try; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			ws := sm.rankSlot(si, i)
			res, err := sm.issue(ws, now, memUsed, sfuUsed)
			if err != nil {
				return false, false, err
			}
			if res == askIssued {
				// The issue moved the warp's class; a warp it queued for
				// re-snapshot is classified by its refresh.
				if !sm.dirty[ws] {
					sm.classifyAt(c, ws, i)
				}
				sc.Issued(ws, int(sm.slotPos[ws]))
				passed |= run & (uint64(1)<<i - 1)
				return true, sm.charge(c, passed, srt) || structural, nil
			}
			structural = true
			if res == askLockWait {
				sm.lockWait(c, sm.warps[ws].tn, i)
			}
		}
		passed |= run
	}
	return false, sm.charge(c, passed, srt) || structural, nil
}

// tryIssue is the reference engine's full ask of warp slot ws: it
// charges a scoreboard wait or a blocked unit kind itself, then goes on
// to issue. It returns (issued, structural, err): structural says a
// candidate warp was blocked by something other than its scoreboard,
// which drives the stall/idle split; a non-nil error is a functional
// execution fault that aborts the run.
func (sm *SM) tryIssue(ws int, now int64, memUsed, sfuUsed *bool) (bool, bool, error) {
	wc := &sm.warps[ws]
	if !wc.live || wc.finished || wc.atBarrier || wc.pc < 0 {
		return false, false, nil
	}
	t := &sm.tens[wc.tn]
	me := &t.meta[wc.pc]

	// Scoreboard: RAW on pending writes, WAW on the destination. The
	// warp has issued everything before this instruction and waits for
	// a result: a data wait, not a pipeline stall.
	if me.regMask&wc.pendingRegs != 0 || me.predMask&wc.pendingPreds != 0 {
		sm.countBlocked(t, reasonScoreboard, 1)
		return false, false, nil
	}

	// Structural hazards: execution unit, LSU, MSHR file.
	if r := sm.kindReason(me.kind, now, *memUsed, *sfuUsed); r != reasonNone {
		sm.countBlocked(t, r, 1)
		return false, true, nil
	}
	res, err := sm.issue(ws, now, memUsed, sfuUsed)
	return res == askIssued, res != askIssued, err
}

// What issue did with a warp. No lock generation moves without an
// issue: a warp that newly takes the register lock makes its block the
// pair's owner, which the dyn gate never stops, and no access needs the
// scratchpad lock under register sharing. So the lock waits a walk
// sorted out at its start hold until its issuer.
const (
	askIssued   uint8 = iota
	askLockWait       // the register lock refused it
	askBlocked        // the scratchpad lock or the dyn gate refused it
)

// issue asks scoreboard-clear candidate warp ws, whose unit kind is
// free, the rest of tryIssue's checks — the register lock, the
// scratchpad lock, the dyn gate — and issues it when all pass.
func (sm *SM) issue(ws int, now int64, memUsed, sfuUsed *bool) (uint8, error) {
	wc := &sm.warps[ws]
	pc := wc.pc
	t := &sm.tens[wc.tn]
	me := &t.meta[pc]
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
			sm.countBlocked(t, reasonLockWait, 1)
			return askLockWait, nil
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
				return askBlocked, nil
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
			return askBlocked, nil
		}
	}

	// All checks passed: execute functionally and model timing.
	res, err := wc.w.Execute(&me.op, &b.env, smemAddrs)
	wc.pc = wc.nextPC()
	if err != nil {
		return askBlocked, &simerr.SimError{
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
			sm.wb.schedule(now+lat, wbEvent{warpSlot: int32(ws), gen: wc.gen, regMask: me.dstRegMask})
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
			sm.wb.schedule(now+me.lat, wbEvent{warpSlot: int32(ws), gen: wc.gen, regMask: me.dstRegMask, predMask: me.dstPredMask})
		}
	}

	if res.Finished {
		sm.warpFinished(ws)
		if sm.faults.Trip(fault.StaleSnapshot, now, sm.ID, ws,
			"warp finished but its scheduler snapshot was not invalidated") {
			// Injected fault: the scheduler keeps a ready snapshot for a
			// finished warp. The snapshot auditor must catch this.
			return askIssued, nil
		}
	}
	// The view moves only if the warp finished or parked; an early-
	// release tenant's warp is queued anyway.
	if wc.finished || wc.atBarrier || t.futureShared != nil {
		sm.markDirty(ws)
	}
	return askIssued, nil
}

// issueGlobalLoad coalesces a load into line transactions and routes each
// through the L1 / MSHR / memory system. The load's line count starts at
// the number of lines; an L1 hit schedules a load-line writeback, a miss
// waits in the MSHR file.
func (sm *SM) issueGlobalLoad(ws int, wc *warpCtx, dstMask uint64, res warp.Result, now int64) {
	lines := mem.Coalesce(res.GlobalAddrs, res.Active, sm.cfg.L1LineSz, sm.lineBuf[:0])
	sm.lineBuf = lines[:0]
	sm.Stats.CoalescedAccess += int64(len(lines))
	wc.pendingRegs |= dstMask
	if len(lines) == 0 { // fully guarded off
		sm.wb.schedule(now+1, wbEvent{warpSlot: int32(ws), gen: wc.gen, regMask: dstMask})
		return
	}
	wc.loadRegs |= dstMask
	reg := uint8(bits.TrailingZeros64(dstMask))
	sm.lineCount[int(wc.lineBase)+int(reg)] = uint8(len(lines))
	ref := LoadRef{Slot: int32(ws), Gen: wc.gen, Reg: reg}
	for _, line := range lines {
		if sm.l1.Probe(line) {
			sm.wb.schedule(now+int64(sm.cfg.L1HitLat), wbEvent{warpSlot: int32(ws), gen: wc.gen, regMask: dstMask, load: true})
		} else if sm.mshr.Add(line, ref) {
			sm.sendLine(line, false, now) // a first miss opens the MSHR entry
		} else {
			sm.l1.Stats.MSHRMerg++ // merged into an outstanding miss
		}
	}
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
		sm.l1.Probe(line)
		sm.l1.Invalidate(line)
		sm.sendLine(line, true, now)
	}
}

// processWritebacks retires the events scheduled for this cycle: the
// wheel slot's chain in FIFO order. Each event is copied out of the
// wheel before retireWB sees it.
func (sm *SM) processWritebacks(now int64) {
	var ev wbEvent
	for sm.wb.next(now, &ev) {
		sm.retireWB(&ev, now)
	}
}

// retireWB applies one writeback event.
func (sm *SM) retireWB(ev *wbEvent, now int64) {
	if ev.load {
		sm.retireLine(int(ev.warpSlot), ev.gen, uint8(bits.TrailingZeros64(ev.regMask)))
		return
	}
	ws := int(ev.warpSlot)
	wc := &sm.warps[ws]
	if wc.gen != ev.gen {
		return // slot was recycled; the event belongs to a dead warp
	}
	// The StaleCensus fault only takes opportunities where it matters:
	// the census holds the warp scoreboard-blocked, and this writeback
	// lands its last operand.
	counted := wc.cls == classScoreboard && !sm.dirty[ws] && sm.faults.Armed(fault.StaleCensus)
	wc.pendingRegs &^= ev.regMask
	wc.pendingPreds &^= ev.predMask
	if counted && sm.scoreboardClear(ws) &&
		sm.faults.Trip(fault.StaleCensus, now, sm.ID, ws,
			"writeback landed a scoreboard-blocked warp's last operand but its census class was not recomputed") {
		return // injected fault: the census still holds the warp "scoreboard-blocked"
	}
	if wc.cls == classScoreboard { // no other class moves when pending bits clear
		sm.reclass(ws)
	}
}

// retireLine retires one line of warp slot ws's load into register reg,
// issued at generation gen: the last line clears the register's
// scoreboard bits. A line of a previous occupant's load is dropped.
func (sm *SM) retireLine(ws int, gen uint32, reg uint8) {
	wc := &sm.warps[ws]
	if wc.gen != gen {
		return
	}
	n := &sm.lineCount[int(wc.lineBase)+int(reg)]
	*n--
	if *n > 0 {
		return
	}
	wc.pendingRegs &^= 1 << reg
	wc.loadRegs &^= 1 << reg
	if wc.cls == classScoreboard {
		sm.reclass(ws)
	}
}

// drainReplies pulls at most one memory reply per cycle (reply-network
// ejection bandwidth), fills the L1, and completes merged loads.
func (sm *SM) drainReplies(now int64) {
	req, ok := sm.memSys.PopReply(sm.ID, now)
	if !ok {
		return
	}
	if sm.faults.Armed(fault.DropMemReply) && sm.faults.Trip(fault.DropMemReply, now, sm.ID, -1,
		fmt.Sprintf("discarded reply for line %#x; the loads waiting on it never complete", req.LineAddr)) {
		return // injected fault: the reply vanishes between networks and MSHR
	}
	sm.l1.Fill(req.LineAddr)
	for _, r := range sm.mshr.Take(req.LineAddr) {
		sm.retireLine(int(r.Slot), r.Gen, r.Reg)
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
