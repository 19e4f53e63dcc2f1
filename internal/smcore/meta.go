package smcore

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/opt/liveness"
	"gpushare/internal/sched"
	"gpushare/internal/warp"
)

// The ready-set issue engine (see DESIGN.md "The ready-set issue
// engine"). Two ideas, both exploiting that a kernel's instruction
// stream is static:
//
//  1. Program: everything tryIssue needs from an instruction is lowered
//     once per launch into one per-PC table — the timing metadata
//     (scoreboard dependency masks, destination masks, execution unit,
//     memory class, shared-pool reach, arithmetic latency) and the
//     decoded functional op the warp executes a register row at a
//     time. The table is immutable, so every SM of the launch shares
//     one copy.
//
//  2. Warp snapshots: each warp's sched.WarpInfo is cached and
//     recomputed only when an event that can change one of its inputs
//     fires (the markDirty callers). A warp's own issue, a writeback or
//     a load completion moves nothing in its view; they move only the
//     warp's bits in its scheduler's census (census.go, reclass), and a
//     queued warp's bits are rewritten by the refresh that re-snapshots
//     it. The two-level policy's one extra input, whether the warp waits
//     on a global load, is not in the view at all but read live through
//     waitingLong. Schedulers that implement sched.Incremental
//     additionally keep a maintained ready ranking fed from the same
//     refresh, so a cycle's ranking is a few runs of the ready list
//     instead of a per-cycle sort, and the census masks shift with the
//     list.
//
// Config.Reference disables idea 2: every cycle rebuilds every view
// and ranks with the legacy sort, which is the reference the snapshot
// path is audited and tested against.

// metaEntry is one PC of a Program: the static issue metadata and the
// decoded instruction.
type metaEntry struct {
	regMask     uint64 // GPR scoreboard dependencies (sources + destination)
	dstRegMask  uint64 // GPR destination bit, if any
	predMask    uint8  // predicate scoreboard dependencies
	dstPredMask uint8  // predicate destination bit, if any
	kind        uint8  // execution unit kind: isa.Unit, global accesses split out (census.go)
	flags       uint8
	lat         int64 // SP/SFU issue-to-writeback latency incl. RF bank conflicts
	op          warp.Op
}

const (
	metaGlobalMem  uint8 = 1 << iota // isa.IsGlobalMem
	metaSharedMem                    // isa.IsSharedMem
	metaSharedPool                   // touches a register in the shared pool (>= PrivateRegs)
)

// Program is a kernel lowered for the issue path under one occupancy
// (the private/shared register split decides which instructions need
// the pair lock). It is read-only after NewProgram.
type Program struct {
	meta []metaEntry
	// futureShared[pc] reports whether a warp at pc can still touch the
	// shared register pool; nil unless early release applies (§VIII).
	futureShared []bool
}

// NewProgram lowers kernel k once for a launch. The result depends only
// on the configuration, the kernel and the occupancy's register split,
// so SMs granted the same occupancy share one Program.
func NewProgram(cfg *config.Config, k *kernel.Kernel, occ core.Occupancy) *Program {
	p := &Program{meta: make([]metaEntry, len(k.Instrs))}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		me := &p.meta[pc]
		me.regMask, me.predMask = dependencyMasks(in)
		if r, ok := in.DstReg(); ok {
			me.dstRegMask = 1 << uint(r)
		}
		if in.Dst.Kind == isa.OpPred {
			me.dstPredMask = 1 << in.Dst.Reg
		}
		me.kind = kindOf(in.Op)
		if isa.IsGlobalMem(in.Op) {
			me.flags |= metaGlobalMem
		}
		if isa.IsSharedMem(in.Op) {
			me.flags |= metaSharedMem
		}
		if in.MaxReg() >= occ.PrivateRegs {
			me.flags |= metaSharedPool
		}
		me.lat = int64(cfg.SPLat)
		if isa.UnitOf(in.Op) == isa.UnitSFU {
			me.lat = int64(cfg.SFULat)
		}
		me.lat += rfConflictCycles(cfg, in)
		me.op = warp.Decode(in)
	}
	if cfg.EarlyRegRelease && cfg.Sharing == config.ShareRegisters && occ.Pairs > 0 {
		p.futureShared = liveness.FutureSharedUse(k, occ.PrivateRegs)
	}
	return p
}

// markDirty queues warp slot ws for re-snapshot before its scheduler's
// next ranking. Call sites are the events that can change HasWork or
// DynID (block launch, a warp finishing or parking at a barrier,
// barrier release, RestoreState) and every issue of an early-release
// tenant's warp, whose ReleaseReg in snapshotWarp must fire at its
// scheduler's next refresh, not at issue time, or lock timing and the
// statistics move. Category changes are handled pair-wide by
// markPairDirty.
func (sm *SM) markDirty(ws int) {
	if sm.reference || sm.dirty[ws] {
		return
	}
	sm.dirty[ws] = true
	si := sm.slotSched[ws]
	sm.dirtyList[si] = append(sm.dirtyList[si], int32(ws))
}

// waitingLong reports whether warp ws's next instruction, read off the
// SIMT stack, depends on a register an outstanding global load will
// write: the two-level policy's fetch-group demotion input, which
// sched.New hands it. It is read live at each ranking, by both engines
// alike, so no issue or load completion has a view to update.
func (sm *SM) waitingLong(ws int) bool {
	wc := &sm.warps[ws]
	pc, _, ok := wc.w.PC()
	return ok && sm.tens[wc.tn].meta[pc].regMask&wc.loadRegs != 0
}

// markBlockDirty queues every warp of a block slot.
func (sm *SM) markBlockDirty(bs int) {
	b := &sm.blocks[bs]
	for wi := 0; wi < b.wpb; wi++ {
		sm.markDirty(b.warpBase + wi)
	}
}

// markPairDirty queues both sides of a sharing pair — pair ownership
// just changed, so every warp of both blocks changed Category. Pairs
// are tenant-local; the partner's global slot is offset by the
// tenant's block base.
func (sm *SM) markPairDirty(bs int) {
	sm.markBlockDirty(bs)
	t := &sm.tens[sm.blocks[bs].tn]
	if partner := t.shr.PartnerSlot(bs - t.blockBase); partner >= 0 {
		sm.markBlockDirty(t.blockBase + partner)
	}
}

// refresh re-snapshots scheduler si's dirty warps, syncs its
// incremental ready ranking, shifting the census with it, and
// classifies each warp in the census, leaving schedInfo[si] equal to
// what a from-scratch rebuild would produce.
func (sm *SM) refresh(si int) {
	dl := sm.dirtyList[si]
	if len(dl) == 0 {
		return
	}
	info := sm.schedInfo[si]
	rl := sm.ready[si]
	for _, ws := range dl {
		sm.dirty[ws] = false
		wi := sm.snapshotWarp(int(ws))
		info[sm.slotPos[ws]] = wi
		if rl != nil {
			if removed, inserted := rl.Sync(wi); removed >= 0 || inserted >= 0 {
				sm.census[si].shift(removed, inserted)
			}
		}
		sm.classify(int(ws))
	}
	sm.dirtyList[si] = dl[:0]
}

// rebuildAll is the reference path: rebuild every view of scheduler si
// from scratch, exactly as the pre-ready-set engine did each cycle.
func (sm *SM) rebuildAll(si int) []sched.WarpInfo {
	info := sm.schedInfo[si]
	for pos, ws := range sm.schedWarps[si] {
		info[pos] = sm.snapshotWarp(ws)
	}
	return info
}

// snapshotWarp computes one warp's scheduler view from its liveness,
// DynID and Category. This is the write path:
// it also performs the early-release check (§VIII extension) the legacy
// buildInfo did, so refresh timing must — and does — cover every cycle
// on which the release condition can newly hold (the condition's only
// non-static input is the warp's PC, read off the SIMT stack, which
// advances only at issue, and an early-release tenant's issue always
// queues the warp).
func (sm *SM) snapshotWarp(ws int) sched.WarpInfo {
	wc := &sm.warps[ws]
	wi := sched.WarpInfo{Slot: ws}
	if wc.live && !wc.finished && !wc.atBarrier {
		bs := wc.w.BlockSlot
		t := &sm.tens[wc.tn]
		ls := bs - t.blockBase
		wi.HasWork = true
		wi.DynID = wc.w.DynID
		wi.Category = t.shr.Category(ls)
		if pc, _, ok := wc.w.PC(); ok && t.futureShared != nil && !t.futureShared[pc] {
			if t.shr.Shared(ls) && t.shr.HoldsRegLock(ls, wc.w.WarpInCta) {
				t.shr.ReleaseReg(ls, wc.w.WarpInCta)
				sm.Stats.EarlyRegRelease++
			}
		}
	}
	return wi
}

// referenceInfo recomputes one warp's scheduler view from scratch with
// no side effects — the reference the snapshot auditor compares cached
// state against.
func (sm *SM) referenceInfo(ws int) sched.WarpInfo {
	wc := &sm.warps[ws]
	wi := sched.WarpInfo{Slot: ws}
	if wc.live && !wc.finished && !wc.atBarrier {
		bs := wc.w.BlockSlot
		t := &sm.tens[sm.blocks[bs].tn]
		wi.HasWork = true
		wi.DynID = wc.w.DynID
		wi.Category = t.shr.Category(bs - t.blockBase)
	}
	return wi
}

// AuditSnapshots cross-checks the ready-set engine: every live warp's
// cached next PC must equal its SIMT stack's (queued or not, reference
// mode included), every cached warp snapshot that is not pending refresh
// must equal a from-scratch recompute, and every incremental scheduler's
// ready structure must equal the ranking of the cached views. Read-only.
// A mismatch means an invalidation event was missed — the scheduler is
// ranking stale state. The censuses layered on the snapshots are
// recounted from the warps' own state (auditCensus).
func (sm *SM) AuditSnapshots(now int64) error {
	for ws := range sm.warps {
		if wc := &sm.warps[ws]; wc.live && wc.pc != wc.nextPC() {
			return fmt.Errorf("SM%d warp %d: cached next PC %d, SIMT stack says %d (missed PC sync)", sm.ID, ws, wc.pc, wc.nextPC())
		}
	}
	if sm.reference {
		return nil
	}
	if err := sm.auditCensus(); err != nil {
		return err
	}
	for si := range sm.scheds {
		for pos, ws := range sm.schedWarps[si] {
			if sm.dirty[ws] {
				continue // queued for refresh; staleness is expected
			}
			got, want := sm.schedInfo[si][pos], sm.referenceInfo(ws)
			if got != want {
				return fmt.Errorf("SM%d warp %d: cached scheduler snapshot %+v differs from recompute %+v (missed snapshot invalidation)",
					sm.ID, ws, got, want)
			}
		}
		if rl := sm.ready[si]; rl != nil {
			if err := rl.Audit(sm.schedInfo[si]); err != nil {
				return fmt.Errorf("SM%d scheduler %d: %w (ready set out of sync with warp snapshots)", sm.ID, si, err)
			}
		}
	}
	return nil
}
