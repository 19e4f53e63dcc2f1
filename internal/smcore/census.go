package smcore

import (
	"fmt"
	"math/bits"

	"gpushare/internal/isa"
	"gpushare/internal/sched"
)

// The census (DESIGN.md "The census").
//
// tryIssue's verdict on a warp has a warp-local half — is the
// scoreboard clear, and if so which unit kind does the instruction
// need — and an SM-wide half: is that unit taken this cycle, is the LSU
// busy, is the MSHR file full. Each scheduler keeps the warp-local
// halves of its warps as bitmasks over its rank indices (the indices a
// sched.Ranking runs over): one mask of scoreboard-blocked warps, one
// of scoreboard-clear warps per unit kind, one of the warps seen
// failing the register lock, valid while their tenant's lock
// generation stands still, and, when the SM hosts more than one tenant,
// one per tenant. A warp's bits are recomputed (reclass) on the events
// that can move them: its own issue, a writeback or the last line of a
// load landing for it, and everything markDirty covers — a queued warp
// is reclassed by the refresh that re-snapshots it, after its ready
// list entry has moved.
//
// Each cycle, sort works out from the SM-wide inputs which warps are
// blocked by a taken unit or a full MSHR file and which are known to
// wait on the lock; the walk asks only the rest — from the register
// lock on, in ranking order — and charges every warp it passed over
// before the issuer by popcount per tenant and class. When nobody is
// left to ask, the census answers the whole cycle without a ranking.
// The census is always valid: nothing drops it.
//
// Derived state: never checkpointed, rebuilt after RestoreState (the
// tenant masks of a view ranking by resetCensus, everything else warp by
// warp by the refresh), unused under Config.Reference (which asks every
// warp every cycle).

// Unit kinds of a scoreboard-clear warp: isa.Unit, with global accesses
// split from the LSU because they additionally need an MSHR.
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

// Issue classes: a warp's class is its census mask. A scoreboard-clear
// class is classClear + its unit kind.
const (
	classNone       uint8 = iota // not an issue candidate, or off the ranking: no bit
	classScoreboard              // an operand or the destination is still in flight
	classClear                   // first scoreboard-clear class
	numClasses      = classClear + numKinds
)

// Reasons a warp is blocked, in tryIssue's precedence order.
const (
	reasonNone uint8 = iota // not blocked by anything its class can tell
	reasonScoreboard
	reasonUnit
	reasonMemPipe
	reasonLockWait
)

// maxSchedWarps is the most warp slots one scheduler may manage: its
// census masks are one word.
const maxSchedWarps = sched.MaxWarps

// census is one scheduler's issue classes, bit i standing for the warp
// at rank index i.
type census struct {
	of   [numClasses]uint64 // of[cls]: the warps of class cls; of[classNone] stays empty
	lock uint64             // scoreboard-clear warps seen failing the register lock, at gen of their tenant
	ten  []uint64           // ten[t]: tenant t's indices; nil on a one-tenant SM
	gen  []uint32           // gen[t]: tenant t's Manager.LockGen() when its lock bits were seen
}

// resetCensus empties scheduler si's census, its storage kept. Under a
// ranking of views a rank index is a warp slot for the SM's lifetime, so
// the tenant masks are laid down here once, launched warp or not; a
// ready list starts empty, and shift and classifyAt keep its tenant
// masks as entries come and go.
func (sm *SM) resetCensus(si int) {
	c := &sm.census[si]
	clear(c.ten)
	clear(c.gen)
	*c = census{ten: c.ten, gen: c.gen}
	if c.ten == nil || sm.ready[si] != nil {
		return
	}
	for pos, ws := range sm.schedWarps[si] {
		c.ten[sm.warps[ws].tn] |= 1 << pos
	}
}

// tenant returns the indices of tenant ti's warps.
func (c *census) tenant(ti int) uint64 {
	if c.ten == nil {
		return ^uint64(0)
	}
	return c.ten[ti]
}

// shift moves every mask as sched.Incremental.Sync reported the ready
// list moved: the entry at removed left, then one entered at inserted.
func (c *census) shift(removed, inserted int) {
	move := func(m uint64) uint64 {
		if removed >= 0 {
			low := uint64(1)<<removed - 1
			m = m&low | m>>1&^low
		}
		if inserted >= 0 {
			low := uint64(1)<<inserted - 1
			m = m&low | (m&^low)<<1
		}
		return m
	}
	for cls := range c.of {
		c.of[cls] = move(c.of[cls])
	}
	c.lock = move(c.lock)
	for ti := range c.ten {
		c.ten[ti] = move(c.ten[ti])
	}
}

// span is the mask of indices [lo, hi).
func span(lo, hi int) uint64 {
	if hi-lo >= 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<(hi-lo) - 1) << lo
}

// kindReason is the SM-wide half of tryIssue's verdict for a
// scoreboard-clear warp of unit kind k: unit, then MSHR.
func (sm *SM) kindReason(k uint8, now int64, memUsed, sfuUsed bool) uint8 {
	switch k {
	case kindSFU:
		if sfuUsed {
			return reasonUnit
		}
	case kindMem, kindGmem:
		if memUsed || now < sm.lsuBusy {
			return reasonUnit
		}
		if k == kindGmem && sm.mshr.Len() >= sm.cfg.L1MSHRs {
			return reasonMemPipe
		}
	}
	return reasonNone
}

// sorting is one cycle's split of a census, from the SM-wide inputs:
// the scoreboard-clear warps whose unit is taken (unit) and those that
// wait for an MSHR (pipe) — kindReason over the masks — the lock waits
// still valid among the rest (lock), and the warps to ask (try).
type sorting struct{ unit, pipe, lock, try uint64 }

// sort splits census c for this cycle into s.
func (sm *SM) sort(c *census, s *sorting, now int64, memUsed, sfuUsed bool) {
	*s = sorting{}
	clear := c.of[classClear+kindSP] | c.of[classClear+kindSFU] | c.of[classClear+kindMem] | c.of[classClear+kindGmem]
	if clear == 0 {
		return
	}
	if sfuUsed {
		s.unit = c.of[classClear+kindSFU]
	}
	if memUsed || now < sm.lsuBusy {
		s.unit |= c.of[classClear+kindMem] | c.of[classClear+kindGmem]
	} else if sm.mshr.Len() >= sm.cfg.L1MSHRs {
		s.pipe = c.of[classClear+kindGmem]
	}
	open := clear &^ (s.unit | s.pipe)
	s.lock = sm.lockWaits(c) & open
	s.try = open &^ s.lock
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

// charge books the warps of passed, which a walk passed over without
// asking them, per tenant by popcount: scoreboard waits and the unit,
// pipe and lock warps of s. It reports whether any of them was a
// structural block.
func (sm *SM) charge(c *census, passed uint64, s *sorting) (structural bool) {
	if passed&(c.of[classScoreboard]|s.unit|s.pipe|s.lock) == 0 {
		return false
	}
	if c.ten == nil {
		return sm.chargeTenant(&sm.tens[0], c, passed, s)
	}
	for ti := range sm.tens {
		if sm.chargeTenant(&sm.tens[ti], c, passed&c.ten[ti], s) {
			structural = true
		}
	}
	return structural
}

// chargeTenant is charge for tenant t's warps p.
func (sm *SM) chargeTenant(t *tenantCtx, c *census, p uint64, s *sorting) (structural bool) {
	if m := p & c.of[classScoreboard]; m != 0 {
		sm.countBlocked(t, reasonScoreboard, int64(bits.OnesCount64(m)))
	}
	if m := p & s.unit; m != 0 {
		structural = sm.countBlocked(t, reasonUnit, int64(bits.OnesCount64(m)))
	}
	if m := p & s.pipe; m != 0 {
		structural = sm.countBlocked(t, reasonMemPipe, int64(bits.OnesCount64(m)))
	}
	if m := p & s.lock; m != 0 {
		structural = sm.countBlocked(t, reasonLockWait, int64(bits.OnesCount64(m)))
	}
	return structural
}

// lockWaits returns scheduler census c's register-lock waits that still
// hold: those of every tenant whose lock generation has not moved since
// they were seen. A tenant's stale ones are dropped (lockWait compares
// the generation again before it adds one).
func (sm *SM) lockWaits(c *census) uint64 {
	if c.lock == 0 {
		return 0
	}
	for ti := range sm.tens {
		if g := sm.tens[ti].shr.LockGen(); g != c.gen[ti] {
			c.gen[ti] = g
			c.lock &^= c.tenant(ti)
		}
	}
	return c.lock
}

// lockWait records that the warp at index i of scheduler census c, of
// tenant ti, failed the register lock just now.
func (sm *SM) lockWait(c *census, ti int32, i int) {
	if g := sm.tens[ti].shr.LockGen(); g != c.gen[ti] {
		c.gen[ti] = g
		c.lock &^= c.tenant(int(ti))
	}
	c.lock |= 1 << i
}

// rankLen, rankSlot and rankIndex map scheduler si's rank indices: a
// position in its views, or, for an incremental scheduler, in its ready
// list.
func (sm *SM) rankLen(si int) int {
	if rl := sm.ready[si]; rl != nil {
		return rl.Len()
	}
	return len(sm.schedWarps[si])
}

func (sm *SM) rankSlot(si, i int) int {
	if rl := sm.ready[si]; rl != nil {
		return rl.Slot(i)
	}
	return sm.schedWarps[si][i]
}

func (sm *SM) rankIndex(si int32, ws int) int {
	if rl := sm.ready[si]; rl != nil {
		return rl.Index(ws)
	}
	return int(sm.slotPos[ws])
}

// reclass recomputes warp ws's bits in its scheduler's census. Callers
// are the events that can change a warp's class besides its own issue
// (after which the walk classifies it): a writeback for it (retireWB)
// and the last line of one of its loads landing (retireLine). A warp
// queued for re-snapshot is left to the refresh, which classifies it
// once its ready-list entry has moved; a new lock generation needs no
// call, since lock waits are kept per generation.
func (sm *SM) reclass(ws int) {
	if !sm.dirty[ws] {
		sm.classify(ws)
	}
}

// classify writes warp ws's bits: none unless it is an issue candidate,
// else scoreboard-blocked or its instruction's unit kind. A warp off its
// scheduler's ranking has no index and no bits.
func (sm *SM) classify(ws int) {
	si := sm.slotSched[ws]
	if i := sm.rankIndex(si, ws); i >= 0 {
		sm.classifyAt(&sm.census[si], ws, i)
	}
}

// classifyAt is classify for warp ws at rank index i of census c. The
// warp's old class, kept in warpCtx.cls, names the one mask to clear.
func (sm *SM) classifyAt(c *census, ws, i int) {
	wc := &sm.warps[ws]
	bit := uint64(1) << i
	c.of[wc.cls] &^= bit
	c.lock &^= bit
	if c.ten != nil {
		c.ten[wc.tn] |= bit // a ready-list entry's index is new; a view's bit is already set
	}
	wc.cls = classNone
	if !wc.live || wc.finished || wc.atBarrier || wc.pc < 0 {
		return
	}
	me := &sm.tens[wc.tn].meta[wc.pc]
	if me.regMask&wc.pendingRegs != 0 || me.predMask&wc.pendingPreds != 0 {
		wc.cls = classScoreboard
	} else {
		wc.cls = classClear + me.kind
	}
	c.of[wc.cls] |= bit
}

// classNames names a census class in audit messages.
var classNames = [numClasses]string{classNone: "none", classScoreboard: "scoreboard",
	classClear + kindSP: "sp", classClear + kindSFU: "sfu", classClear + kindMem: "mem", classClear + kindGmem: "gmem"}

// nameAt names the class index i holds in c: "none", a class, or
// a list when more than one mask has the bit.
func (c *census) nameAt(i int) string {
	bit := uint64(1) << i
	var names []string
	for cls, m := range c.of {
		if m&bit != 0 {
			names = append(names, classNames[cls])
		}
	}
	switch len(names) {
	case 0:
		return "none"
	case 1:
		return names[0]
	}
	return fmt.Sprint(names)
}

// auditCensus recounts every census from its scheduler's warps' own
// state: at each rank index whose warp is not queued for re-snapshot,
// the warp holds no class unless it is an issue candidate, else
// scoreboard-blocked when the read-only stall probe's scoreboard check
// (scoreboardWait) finds a wait and its instruction's unit kind
// (kindOf) otherwise; with more than one tenant, its tenant's mask
// holds it and no other does; and a lock wait at its tenant's current
// lock generation must be one the lock really imposes (RegNeedsLock,
// WouldBlockReg). No bit may lie past the ranking. A mismatch means a
// reclass was missed: the issue stage is charging or skipping a warp
// on stale state.
func (sm *SM) auditCensus() error {
	for si := range sm.census {
		c := &sm.census[si]
		n := sm.rankLen(si)
		if n > maxSchedWarps {
			return fmt.Errorf("SM%d scheduler %d: ranks %d warps, more than a census word holds", sm.ID, si, n)
		}
		if c.of[classNone] != 0 {
			return fmt.Errorf("SM%d scheduler %d: census holds warps %#x in class none", sm.ID, si, c.of[classNone])
		}
		clearWarps := uint64(0)
		for _, m := range c.of[classClear:] {
			clearWarps |= m
		}
		all := c.of[classScoreboard] | clearWarps | c.lock
		for _, m := range c.ten {
			all |= m
		}
		if past := all &^ span(0, n); past != 0 {
			return fmt.Errorf("SM%d scheduler %d: census bits %#x lie past its %d rank indices", sm.ID, si, past, n)
		}
		if stray := c.lock &^ clearWarps; stray != 0 {
			return fmt.Errorf("SM%d scheduler %d: census lock waits %#x on warps that are not scoreboard-clear", sm.ID, si, stray)
		}
		for i := range n {
			ws := sm.rankSlot(si, i)
			if sm.dirty[ws] {
				continue // queued for refresh; staleness is expected
			}
			wc := &sm.warps[ws]
			t := &sm.tens[wc.tn]
			bit := uint64(1) << i
			for ti, m := range c.ten {
				if (m&bit != 0) != (ti == int(wc.tn)) {
					return fmt.Errorf("SM%d scheduler %d warp %d: census tenant masks misplace tenant index %d's warp (index %d)", sm.ID, si, ws, wc.tn, i)
				}
			}
			want := classNone
			pc, _, ok := wc.w.PC()
			var in *isa.Instr
			if wc.live && !wc.finished && !wc.atBarrier && ok {
				in = &t.launch.Kernel.Instrs[pc]
				if regs, preds := scoreboardWait(wc, in); regs != 0 || preds {
					want = classScoreboard
				} else {
					want = classClear + kindOf(in.Op)
				}
			}
			held := 0
			for _, m := range c.of {
				if m&bit != 0 {
					held++
				}
			}
			if wc.cls != want || want == classNone && held != 0 || want != classNone && (held != 1 || c.of[want]&bit == 0) {
				return fmt.Errorf("SM%d scheduler %d warp %d: census class %s (the warp records %s), a recount of the warp's state says %s (missed reclass)",
					sm.ID, si, ws, c.nameAt(i), classNames[wc.cls], classNames[want])
			}
			if c.lock&bit == 0 || c.gen[wc.tn] != t.shr.LockGen() {
				continue
			}
			ls := wc.w.BlockSlot - t.blockBase
			if !t.shr.RegNeedsLock(ls, in) || !t.shr.WouldBlockReg(ls, wc.w.WarpInCta) {
				return fmt.Errorf("SM%d scheduler %d warp %d: census counts a register-lock wait at the current lock generation %d, but the lock does not block the warp",
					sm.ID, si, ws, c.gen[wc.tn])
			}
		}
	}
	return nil
}
