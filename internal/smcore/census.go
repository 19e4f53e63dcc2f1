package smcore

import (
	"fmt"
	"math/bits"

	"gpushare/internal/isa"
)

// The census (DESIGN.md "The census").
//
// tryIssue's verdict on a blocked warp has a warp-local half — is the
// scoreboard clear, and if so which unit does the instruction need, is
// it a global access, is the warp waiting on the register lock — and an
// SM-wide half: is that unit taken this cycle, is the LSU busy, is the
// MSHR file full, has the lock state moved. The warp-local half is an
// issue class; the SM-wide half is evaluated per class by classReason.
//
// When a scheduler's whole walk issued nothing and every warp it asked
// was blocked in a cacheable class, the walk's per-tenant class counts
// are kept. Until an event that can change a counted warp's class drops
// the census, the next cycle's walk can only repeat the same warps in
// the same classes, so each class is re-evaluated once against the
// current SM-wide inputs and, if all are still blocked, the cycle's
// Block* counters are charged in constant time — order cannot matter
// when nobody issues.
//
// Derived state: never checkpointed, dropped by RestoreState, unused
// under Config.Reference (which asks every warp every cycle).

// Issue classes. A scoreboard-clear class is classClear + kind<<1, plus
// classLockWait when the warp was seen failing TryAcquireReg.
const (
	classNone       uint8 = iota // as a verdict: not an issue candidate
	classScoreboard              // an operand or the destination is still in flight
	classClear                   // first scoreboard-clear class

	classLockWait uint8 = 1 // low bit of a scoreboard-clear class

	numClasses = classClear + numKinds<<1
	// classUncached is tryIssue's verdict for a structural block whose
	// outcome may differ next cycle with no event in between: a
	// scratchpad-lock wait (address-dependent) or a dyn-gate draw (it
	// consumes the RNG). Never counted in a census.
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

// Reasons a warp of a cacheable class is blocked, in tryIssue's
// precedence order.
const (
	reasonNone uint8 = iota // not blocked by anything its class can tell
	reasonScoreboard
	reasonUnit
	reasonMemPipe
	reasonLockWait
)

// verdict is one warp a walk asked and did not issue, with the class
// tryIssue returned for it.
type verdict struct {
	slot int32
	cls  uint8
}

// census is one scheduler's class counts from its last walk.
type census struct {
	// valid: the last walk issued nothing, every warp it asked was
	// blocked in a cacheable class, and the census has not been dropped
	// since.
	valid   bool
	present uint16         // bit cls set: some tenant counts class cls
	ten     []censusTenant // parallel to sm.tens
}

type censusTenant struct {
	lockGen uint32 // the tenant's Manager.LockGen() at the walk
	n       [numClasses]uint16
}

// takeCensus counts the verdicts of the walk scheduler si just ended
// (all of them cacheable, none issued) and reports whether the result
// is usable: no warp of the scheduler may be queued for re-snapshot, or
// the next ranking could differ. No lock generation moved inside the
// walk — every path that advances one either issues or returns
// classUncached — so each lock-wait class is current at the end.
func (sm *SM) takeCensus(cen *census, si int, walked []verdict) bool {
	if len(sm.dirtyList[si]) != 0 {
		return false
	}
	cen.present = 0
	for ti := range cen.ten {
		cen.ten[ti] = censusTenant{lockGen: sm.tens[ti].shr.LockGen()}
	}
	for _, v := range walked {
		cen.ten[sm.warps[v.slot].tn].n[v.cls]++
		cen.present |= 1 << v.cls
	}
	return true
}

// classReason is the SM-wide half of tryIssue's verdict, for a warp of
// class cls: scoreboard, then unit, then MSHR, then the register lock.
// The caller vouches that a lock-wait bit in cls is current.
func (sm *SM) classReason(cls uint8, now int64, memUsed, sfuUsed bool) uint8 {
	if cls == classScoreboard {
		return reasonScoreboard
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

// dropCensus drops the census of warp ws's scheduler. Callers are the
// events that can change a counted warp's class: a writeback for the
// warp (retireWB), the last line of one of its loads landing
// (retireLine), and everything markDirty covers (launch, barrier park
// and release, finish, pair ownership change, restore). An issue needs no call: the
// walk that issued takes no census. A new lock generation needs none
// either: the census records each tenant's, and a lock wait is only
// replayed at the generation it was observed.
func (sm *SM) dropCensus(ws int) {
	sm.census[sm.slotSched[ws]].valid = false
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

// tenantRecount is one tenant's part of a census recount: want counts a
// scheduler's ranked warps per class with the lock-wait bit folded, and
// lockable those of them the register lock blocks now.
type tenantRecount struct{ want, lockable [numClasses]uint16 }

// auditCensus recounts every valid census from its scheduler's ranked
// warps' own state: each must be an issue candidate, its class is
// classScoreboard when the read-only stall probe's scoreboard check
// (scoreboardWait) finds a wait and the instruction's unit kind
// otherwise. A lock wait cannot be recomputed — a warp the unit or the
// MSHR file blocked first never reached the lock — so the counts are
// compared with the lock-wait bit folded, and at a tenant's current
// lock generation the census may not count more lock waits in a class
// than warps the lock really blocks. A mismatch means a census drop was
// missed: the issue stage is charging a cycle from stale state.
func (sm *SM) auditCensus() error {
	var recount []tenantRecount
	for si := range sm.census {
		cen := &sm.census[si]
		if !cen.valid {
			continue
		}
		if len(sm.dirtyList[si]) != 0 {
			return fmt.Errorf("SM%d scheduler %d: census valid with %d warps awaiting re-snapshot", sm.ID, si, len(sm.dirtyList[si]))
		}
		if recount == nil {
			recount = make([]tenantRecount, len(sm.tens))
		} else {
			clear(recount)
		}
		for pos, ws := range sm.schedWarps[si] {
			if !sm.schedInfo[si][pos].HasWork {
				continue
			}
			wc := &sm.warps[ws]
			pc, _, ok := wc.w.PC()
			if !wc.live || wc.finished || wc.atBarrier || !ok {
				return fmt.Errorf("SM%d scheduler %d: census valid but ranked warp %d is not an issue candidate", sm.ID, si, ws)
			}
			t := &sm.tens[wc.tn]
			in := &t.launch.Kernel.Instrs[pc]
			rc := &recount[wc.tn]
			if regs, preds := scoreboardWait(wc, in); regs != 0 || preds {
				rc.want[classScoreboard]++
				continue
			}
			cls := classClear + kindOf(in.Op)<<1
			rc.want[cls]++
			ls := wc.w.BlockSlot - t.blockBase
			if t.shr.RegNeedsLock(ls, in) && t.shr.WouldBlockReg(ls, wc.w.WarpInCta) {
				rc.lockable[cls]++
			}
		}
		var present uint16
		for ti := range recount {
			ct, rc := &cen.ten[ti], &recount[ti]
			for cls, n := range ct.n {
				if n != 0 {
					present |= 1 << cls
				}
			}
			got := ct.n
			for cls := classClear; cls < numClasses; cls += 2 {
				got[cls] += got[cls|classLockWait]
				got[cls|classLockWait] = 0
			}
			if got != rc.want {
				return fmt.Errorf("SM%d scheduler %d tenant index %d: census counts %v disagree with a recount of the ranked warps %v (lock waits folded; missed census drop)",
					sm.ID, si, ti, got, rc.want)
			}
			if ct.lockGen != sm.tens[ti].shr.LockGen() {
				continue
			}
			for cls := classClear; cls < numClasses; cls += 2 {
				if n := ct.n[cls|classLockWait]; n > rc.lockable[cls] {
					return fmt.Errorf("SM%d scheduler %d tenant index %d: census counts %d register-lock waits in class %d at the current lock generation %d, but the lock blocks %d of those warps",
						sm.ID, si, ti, n, cls, ct.lockGen, rc.lockable[cls])
				}
			}
		}
		if present != cen.present {
			return fmt.Errorf("SM%d scheduler %d: census class mask %#x disagrees with its own counts %#x", sm.ID, si, cen.present, present)
		}
	}
	return nil
}
