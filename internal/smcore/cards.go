package smcore

import (
	"fmt"
	"math/bits"

	"gpushare/internal/isa"
)

// Issue cards and the census (DESIGN.md "Issue cards and the census").
//
// tryIssue's verdict on a blocked warp has a warp-local half — is the
// scoreboard clear, and if so which unit does the instruction need, is
// it a global access, is the warp waiting on the register lock — and an
// SM-wide half: is that unit taken this cycle, is the LSU busy, is the
// MSHR file full, has the lock state moved. The warp-local half changes
// only on a handful of events, so it is cached per warp as an issue
// class (the card) and a blocked warp is re-classified from eight bytes
// without touching its warpCtx, SIMT stack or metadata entry.
//
// The census goes one step further: when a scheduler's whole walk
// issued nothing and every ranked warp had a cacheable class, the
// per-tenant class counts are kept. While no card of that scheduler is
// invalidated, the next cycle's walk can only repeat the same warps in
// the same classes, so each class is re-evaluated once against the
// current SM-wide inputs and, if all are still blocked, the cycle's
// Block* counters are charged in constant time — order cannot matter
// when nobody issues.
//
// Both are derived state: never checkpointed, reset by RestoreState,
// unused under Config.Reference (which asks every warp every cycle).

// Issue classes. A scoreboard-clear class is classClear + kind<<1, plus
// classLockWait when the warp was seen failing TryAcquireReg.
const (
	classNone       uint8 = iota // no card; as a verdict: not an issue candidate
	classScoreboard              // an operand or the destination is still in flight
	classClear                   // first scoreboard-clear class

	classLockWait uint8 = 1 // low bit of a scoreboard-clear class

	numClasses = classClear + numKinds<<1
	// classUncached is tryIssue's verdict for a structural block whose
	// outcome may differ next cycle with no event in between: a
	// scratchpad-lock wait (address-dependent) or a dyn-gate draw (it
	// consumes the RNG). Never stored in a card or counted in a census.
	classUncached = numClasses
)

// Unit kinds of a scoreboard-clear class: isa.Unit, with global
// accesses split from the LSU because they additionally need an MSHR.
const (
	kindSP uint8 = iota
	kindSFU
	kindMem
	kindGmem
	numKinds
)

// kindOf maps an opcode to its unit kind.
func kindOf(op isa.Opcode) uint8 {
	if isa.IsGlobalMem(op) {
		return kindGmem
	}
	return uint8(isa.UnitOf(op))
}

func lockWaiting(cls uint8) bool { return cls >= classClear && cls&classLockWait != 0 }

// Reasons a warp of a cacheable class is blocked, in tryIssue's
// precedence order.
const (
	reasonNone uint8 = iota // not blocked by anything a card can tell
	reasonScoreboard
	reasonUnit
	reasonMemPipe
	reasonLockWait
)

// issueCard is one warp's cached issue class.
type issueCard struct {
	lockGen uint32 // Manager.LockGen() the lock wait was observed at
	class   uint8
	tn      uint8 // index into sm.tens, so the hit path skips the warpCtx
}

// classAt returns the card's class as it stands at lock generation gen:
// a lock wait observed at an older generation no longer counts.
func (c issueCard) classAt(gen uint32) uint8 {
	if lockWaiting(c.class) && c.lockGen != gen {
		return c.class &^ classLockWait
	}
	return c.class
}

// census is one scheduler's class counts from its last walk.
type census struct {
	// valid: the last walk issued nothing, every ranked warp was blocked
	// in a cacheable class, and no card of this scheduler has been
	// invalidated since.
	valid   bool
	present uint16         // bit cls set: some tenant counts class cls
	ten     []censusTenant // parallel to sm.tens
}

type censusTenant struct {
	lockGen uint32 // the tenant's Manager.LockGen() at the walk
	n       [numClasses]uint16
}

// takeCensus counts the cards of the warps scheduler si just walked
// (all of them blocked, none issued) and reports whether the result is
// usable: every ranked warp must still hold a card and none may be
// queued for re-snapshot, or the next ranking could differ.
func (sm *SM) takeCensus(cen *census, si int, walked []int) bool {
	if len(sm.dirtyList[si]) != 0 {
		return false
	}
	cen.present = 0
	for ti := range cen.ten {
		cen.ten[ti] = censusTenant{lockGen: sm.tens[ti].shr.LockGen()}
	}
	for _, ws := range walked {
		c := sm.cards[ws]
		if c.class == classNone {
			return false
		}
		ct := &cen.ten[c.tn]
		cls := c.classAt(ct.lockGen)
		ct.n[cls]++
		cen.present |= 1 << cls
	}
	return true
}

// classReason is the SM-wide half of tryIssue's verdict, for a warp of
// class cls: scoreboard, then unit, then MSHR, then the register lock.
// cls comes from classAt, so a lock-wait bit is current.
func (sm *SM) classReason(cls uint8, now int64, memUsed, sfuUsed bool) uint8 {
	if cls < classClear {
		if cls == classScoreboard {
			return reasonScoreboard
		}
		return reasonNone
	}
	switch kind := (cls - classClear) >> 1; kind {
	case kindSFU:
		if sfuUsed {
			return reasonUnit
		}
	case kindMem, kindGmem:
		if memUsed || now < sm.lsuBusy {
			return reasonUnit
		}
		if kind == kindGmem && sm.mshr.Len() >= sm.cfg.L1MSHRs {
			return reasonMemPipe
		}
	}
	if cls&classLockWait != 0 {
		return reasonLockWait
	}
	return reasonNone
}

// countBlocked charges n failed issue attempts of tenant t to reason's
// counters and reports whether the reason is structural (a pipeline
// stall, as opposed to a data wait).
func (sm *SM) countBlocked(t *tenantCtx, reason uint8, n int64) bool {
	switch reason {
	case reasonScoreboard:
		sm.Stats.BlockScoreboard += n
		t.st.BlockScoreboard += n
		return false
	case reasonUnit:
		sm.Stats.BlockUnit += n
		t.st.BlockUnit += n
	case reasonMemPipe:
		sm.Stats.BlockMemPipe += n
		t.st.BlockMemPipe += n
	case reasonLockWait:
		sm.Stats.BlockLockWait += n
		t.st.BlockLockWait += n
		sm.Stats.SharedRegWaits += n
	}
	return true
}

// block records that warp ws of tenant index tn is blocked in class cls
// for reason r: it writes the card, charges the attempt and returns cls.
// Cards are written in reference mode too, where nothing reads them.
func (sm *SM) block(ws int, tn int32, cls, r uint8) uint8 {
	t := &sm.tens[tn]
	sm.cards[ws] = issueCard{lockGen: t.shr.LockGen(), class: cls, tn: uint8(tn)}
	sm.countBlocked(t, r, 1)
	return cls
}

// invalidateCard drops warp ws's card and with it its scheduler's
// census. Callers are the events that can change the warp-local half of
// the verdict: a writeback for the warp (retireWB), a load completion
// for it (completeGroupPart), its own issue (tryIssue clears the card
// before Execute), and everything markDirty covers
// (launch, barrier park and release, finish, pair ownership change,
// restore). A new lock generation needs no call: a lock wait is only
// honoured at the generation it was observed.
func (sm *SM) invalidateCard(ws int) {
	sm.cards[ws].class = classNone
	sm.census[sm.slotSched[ws]].valid = false
}

// cardVerdict classifies warp ws from its card alone. It returns the
// class the warp is blocked in at this cycle and charges the attempt,
// or classNone when the card is absent or no longer says "blocked" and
// the warp must be asked in full.
func (sm *SM) cardVerdict(ws int, now int64, memUsed, sfuUsed bool) uint8 {
	c := sm.cards[ws]
	if c.class == classNone {
		return classNone
	}
	t := &sm.tens[c.tn]
	cls := c.classAt(t.shr.LockGen())
	r := sm.classReason(cls, now, memUsed, sfuUsed)
	if r == reasonNone {
		return classNone
	}
	sm.countBlocked(t, r, 1)
	return cls
}

// replayCensus charges scheduler si's cycle from its census when every
// counted class is still blocked under the current SM-wide inputs, and
// reports whether it did; structural reports whether any of the blocks
// was a structural one. On false nothing was charged and the scheduler
// takes the real walk.
func (sm *SM) replayCensus(cen *census, now int64, memUsed, sfuUsed bool) (ok, structural bool) {
	var reason [numClasses]uint8
	onLock := false
	for m := cen.present; m != 0; m &= m - 1 {
		cls := uint8(bits.TrailingZeros16(m))
		r := sm.classReason(cls, now, memUsed, sfuUsed)
		if r == reasonNone {
			return false, false
		}
		onLock = onLock || r == reasonLockWait
		reason[cls] = r
	}
	if onLock {
		for ti := range cen.ten {
			if cen.ten[ti].lockGen != sm.tens[ti].shr.LockGen() {
				return false, false
			}
		}
	}
	for ti := range cen.ten {
		ct, t := &cen.ten[ti], &sm.tens[ti]
		for m := cen.present; m != 0; m &= m - 1 {
			cls := bits.TrailingZeros16(m)
			if n := ct.n[cls]; n != 0 && sm.countBlocked(t, reason[cls], int64(n)) {
				structural = true
			}
		}
	}
	return true, structural
}

// auditCards cross-checks the issue cards and censuses against a
// recompute: every card must agree with the read-only stall probe
// (stallReason's own scoreboard check, scoreboardWait) about the
// scoreboard, name the instruction's real unit kind and tenant, and
// only claim a lock wait that still holds at its generation; every
// valid census must equal a recount of its scheduler's ranked warps'
// cards. A mismatch means a card invalidation was missed — the issue
// stage is charging (or skipping) a warp on stale state.
func (sm *SM) auditCards(now int64) error {
	for ws := range sm.warps {
		c := sm.cards[ws]
		if c.class == classNone {
			continue
		}
		wc := &sm.warps[ws]
		pc, _, ok := wc.w.PC()
		if !wc.live || wc.finished || wc.atBarrier || !ok {
			return fmt.Errorf("SM%d warp %d: issue card (class %d) on a warp that is not an issue candidate (missed card invalidation)",
				sm.ID, ws, c.class)
		}
		if int32(c.tn) != wc.tn {
			return fmt.Errorf("SM%d warp %d: issue card names tenant index %d, warp belongs to %d", sm.ID, ws, c.tn, wc.tn)
		}
		t := &sm.tens[wc.tn]
		in := &t.launch.Kernel.Instrs[pc]
		regs, preds := scoreboardWait(wc, in)
		if onScoreboard := regs != 0 || preds; onScoreboard != (c.class == classScoreboard) {
			return fmt.Errorf("SM%d warp %d: issue card class %d but the stall probe says %q (missed card invalidation)",
				sm.ID, ws, c.class, sm.stallReason(ws, now))
		}
		if c.class == classScoreboard {
			continue
		}
		if kind := kindOf(in.Op); kind != (c.class-classClear)>>1 {
			return fmt.Errorf("SM%d warp %d: issue card unit kind %d, instruction %s is kind %d (missed card invalidation)",
				sm.ID, ws, (c.class-classClear)>>1, in.String(), kind)
		}
		if lockWaiting(c.class) && c.lockGen == t.shr.LockGen() {
			ls := wc.w.BlockSlot - t.blockBase
			if !t.shr.RegNeedsLock(ls, in) || !t.shr.WouldBlockReg(ls, wc.w.WarpInCta) {
				return fmt.Errorf("SM%d warp %d: issue card claims a register-lock wait at the current lock generation %d, but the lock is free to it",
					sm.ID, ws, c.lockGen)
			}
		}
	}
	for si := range sm.census {
		cen := &sm.census[si]
		if !cen.valid {
			continue
		}
		if len(sm.dirtyList[si]) != 0 {
			return fmt.Errorf("SM%d scheduler %d: census valid with %d warps awaiting re-snapshot", sm.ID, si, len(sm.dirtyList[si]))
		}
		want := make([]censusTenant, len(cen.ten))
		var present uint16
		for pos, ws := range sm.schedWarps[si] {
			if !sm.schedInfo[si][pos].HasWork {
				continue
			}
			c := sm.cards[ws]
			if c.class == classNone {
				return fmt.Errorf("SM%d scheduler %d: census valid but ranked warp %d has no issue card", sm.ID, si, ws)
			}
			cls := c.classAt(cen.ten[c.tn].lockGen)
			want[c.tn].n[cls]++
			present |= 1 << cls
		}
		for ti := range want {
			if want[ti].n != cen.ten[ti].n {
				return fmt.Errorf("SM%d scheduler %d tenant index %d: census counts %v disagree with a recount of the cards %v",
					sm.ID, si, ti, cen.ten[ti].n, want[ti].n)
			}
		}
		if present != cen.present {
			return fmt.Errorf("SM%d scheduler %d: census class mask %#x disagrees with a recount of the cards %#x", sm.ID, si, cen.present, present)
		}
	}
	return nil
}
