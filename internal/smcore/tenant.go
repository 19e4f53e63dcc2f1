package smcore

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/mem/cache"
	"gpushare/internal/sched"
	"gpushare/internal/stats"
	"gpushare/internal/warp"
)

// TenantLaunch describes one tenant's share of an SM: its kernel launch,
// the occupancy the placement granted it on this SM, and optional hard
// resource caps. Caps of 0 are unenforced (the single-tenant path); the
// co-scheduling admission layer sets them to the granted budgets so a
// tenant can never consume another tenant's registers or scratchpad.
type TenantLaunch struct {
	ID      int // global tenant index (stable across SMs)
	Launch  *kernel.Launch
	Occ     core.Occupancy
	CapRegs int // register cap for this tenant on this SM (0 = no cap)
	CapSmem int // scratchpad byte cap for this tenant on this SM (0 = no cap)

	// Prog is NewProgram(cfg, Launch.Kernel, Occ), built once by the
	// caller and shared by every SM that hosts this tenant under this
	// occupancy. nil makes the SM lower the kernel itself.
	Prog *Program
}

// tenantCtx is one tenant's state on an SM. Each tenant owns a
// contiguous range of block slots [blockBase, blockBase+nBlocks) and
// warp slots [warpBase, warpBase+nBlocks*wpb), its own sharing manager
// (pair slots are tenant-local, so intra-kernel resource sharing keeps
// working per tenant), its own static issue metadata, and a cap ledger
// charging registers and scratchpad as blocks launch and finish.
type tenantCtx struct {
	id     int // global tenant index
	launch *kernel.Launch
	occ    core.Occupancy
	shr    *core.Manager
	wpb    int // warps per block for this tenant's kernel

	meta         []metaEntry // the tenant's Program, indexed by PC
	futureShared []bool

	blockBase int // first block slot owned by this tenant
	nBlocks   int // block slots owned (== occ.Max)
	warpBase  int // first warp slot owned by this tenant

	// Cap ledger. The dimension being shared between pair blocks is
	// charged per pair with core.PairQuantum (a pair holds (1+t) block
	// allocations between them); every other dimension is charged per
	// block. pairRegs/pairSmem hold the precomputed quantum for the
	// active sharing mode, 0 otherwise.
	capRegs, capSmem   int
	usedRegs, usedSmem int
	liveBlocks         int
	regsPerBlock       int
	smemPerBlock       int
	pairRegs, pairSmem int

	// parked counts this tenant's live warps waiting at a barrier, kept
	// in step with every flip of warpCtx.atBarrier so Tick charges
	// BarrierWaits without scanning the warps. It deliberately counts
	// parked warps, not blockCtx.arrived, which a SkipBarrierArrival
	// fault desynchronises.
	parked int

	st stats.Tenant
}

// NewMulti builds an SM hosting one or more tenants' kernels at once.
// Tenants' block and warp slots are concatenated in tenant order, so a
// single-tenant SM built through New is laid out identically to the
// pre-tenancy core (warp slot i still maps to scheduler i mod N).
func NewMulti(id int, cfg *config.Config, tens []TenantLaunch, ms *mem.System) (*SM, error) {
	if len(tens) == 0 {
		return nil, fmt.Errorf("SM%d: no tenants", id)
	}
	if len(tens) > 256 {
		return nil, fmt.Errorf("SM%d: %d tenants exceed the 256 an issue card can index", id, len(tens))
	}
	sm := &SM{
		ID:      id,
		cfg:     cfg,
		l1:      cache.NewWithPolicy(cfg.L1Sets, cfg.L1Ways, cfg.L1LineSz, cfg.L1Policy),
		mshr:    mem.NewLineTable[*loadGroup](),
		memSys:  ms,
		dynProb: 1,
		rng:     cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15,
	}
	if cfg.DynWarp && id == 0 {
		// SM0 is the reference SM: non-owner memory instructions are
		// disabled on it (§IV-C).
		sm.dynProb = 0
	}

	totalBlocks, totalWarps, totalThreads := 0, 0, 0
	for _, tl := range tens {
		k := tl.Launch.Kernel
		if k.RegsPerThread > 64 {
			return nil, fmt.Errorf("kernel %s: %d registers/thread exceeds the scoreboard's 64-register limit",
				k.Name, k.RegsPerThread)
		}
		wpb := k.WarpsPerBlock()
		t := tenantCtx{
			id:           tl.ID,
			launch:       tl.Launch,
			occ:          tl.Occ,
			shr:          core.NewManager(cfg, tl.Occ, wpb),
			wpb:          wpb,
			blockBase:    totalBlocks,
			nBlocks:      tl.Occ.Max,
			warpBase:     totalWarps,
			capRegs:      tl.CapRegs,
			capSmem:      tl.CapSmem,
			regsPerBlock: k.RegsPerBlock(),
			smemPerBlock: k.SmemPerBlock,
		}
		switch cfg.Sharing {
		case config.ShareRegisters:
			t.pairRegs = core.PairQuantum(t.regsPerBlock, cfg.T)
		case config.ShareScratchpad:
			t.pairSmem = core.PairQuantum(t.smemPerBlock, cfg.T)
		}
		prog := tl.Prog
		if prog == nil {
			prog = NewProgram(cfg, k, tl.Occ)
		}
		t.meta, t.futureShared = prog.meta, prog.futureShared
		t.st.SMs = 1
		totalBlocks += tl.Occ.Max
		totalWarps += tl.Occ.Max * wpb
		totalThreads += tl.Occ.Max * k.Threads()
		sm.tens = append(sm.tens, t)
	}
	if totalBlocks > cfg.MaxBlocksPerSM {
		return nil, fmt.Errorf("SM%d: placement grants %d block slots, exceeding the %d-block SM limit",
			id, totalBlocks, cfg.MaxBlocksPerSM)
	}
	if totalThreads > cfg.MaxThreadsPerSM {
		return nil, fmt.Errorf("SM%d: placement grants %d resident threads, exceeding the %d-thread SM limit",
			id, totalThreads, cfg.MaxThreadsPerSM)
	}

	sm.warps = make([]warpCtx, totalWarps)
	sm.blocks = make([]blockCtx, totalBlocks)
	for ti := range sm.tens {
		t := &sm.tens[ti]
		for ls := 0; ls < t.nBlocks; ls++ {
			b := &sm.blocks[t.blockBase+ls]
			b.tn = ti
			b.warpBase = t.warpBase + ls*t.wpb
			b.wpb = t.wpb
		}
		for wi := 0; wi < t.nBlocks*t.wpb; wi++ {
			ws := t.warpBase + wi
			sm.warps[ws].w = warp.NewState(t.launch.Kernel.RegsPerThread, 0)
			sm.warps[ws].w.ID = ws
			sm.warps[ws].tn = int32(ti)
		}
	}

	for i := 0; i < cfg.NumSchedulers; i++ {
		sm.scheds = append(sm.scheds, sched.New(cfg.Sched, cfg.TwoLevelGroup))
		sm.schedWarps = append(sm.schedWarps, nil)
	}
	for ws := range sm.warps {
		s := ws % cfg.NumSchedulers
		sm.schedWarps[s] = append(sm.schedWarps[s], ws)
	}

	sm.reference = cfg.Reference
	sm.dirty = make([]bool, len(sm.warps))
	sm.slotSched = make([]int32, len(sm.warps))
	sm.slotPos = make([]int32, len(sm.warps))
	sm.cards = make([]issueCard, len(sm.warps))
	sm.census = make([]census, len(sm.scheds))
	counts := make([]censusTenant, len(sm.scheds)*len(sm.tens))
	for si := range sm.census {
		sm.census[si].ten = counts[si*len(sm.tens) : (si+1)*len(sm.tens) : (si+1)*len(sm.tens)]
	}
	for si := range sm.scheds {
		n := len(sm.schedWarps[si])
		info := make([]sched.WarpInfo, n)
		for pos, ws := range sm.schedWarps[si] {
			info[pos] = sched.WarpInfo{Slot: ws}
			sm.slotSched[ws] = int32(si)
			sm.slotPos[ws] = int32(pos)
		}
		sm.schedInfo = append(sm.schedInfo, info)
		sm.schedOrder = append(sm.schedOrder, make([]int, 0, n))
		sm.dirtyList = append(sm.dirtyList, make([]int32, 0, n))
		inc, _ := sm.scheds[si].(sched.Incremental)
		if sm.reference {
			inc = nil // legacy ranking everywhere on the recompute path
		}
		sm.incr = append(sm.incr, inc)
	}
	return sm, nil
}

// chargeBlock charges a block launch into slot against its tenant's cap
// ledger. On the pair-shared dimension the quantum is charged when the
// first side of the pair launches and held until the last side finishes;
// every other dimension is charged per block. A charge that would exceed
// a hard cap is a placement invariant violation, reported as an error.
func (sm *SM) chargeBlock(t *tenantCtx, slot int) error {
	chRegs, chSmem := t.regsPerBlock, t.smemPerBlock
	ls := slot - t.blockBase
	if t.shr.Shared(ls) {
		p := t.shr.PartnerSlot(ls)
		partnerLive := p >= 0 && sm.blocks[t.blockBase+p].live
		if t.pairRegs > 0 {
			chRegs = t.pairRegs
			if partnerLive {
				chRegs = 0 // pair quantum already held by the partner
			}
		} else if t.pairSmem > 0 {
			chSmem = t.pairSmem
			if partnerLive {
				chSmem = 0
			}
		}
	}
	if t.capRegs > 0 && t.usedRegs+chRegs > t.capRegs {
		return fmt.Errorf("SM%d tenant %d: launching into slot %d needs %d registers but only %d of the %d-register cap remain",
			sm.ID, t.id, slot, chRegs, t.capRegs-t.usedRegs, t.capRegs)
	}
	if t.capSmem > 0 && t.usedSmem+chSmem > t.capSmem {
		return fmt.Errorf("SM%d tenant %d: launching into slot %d needs %d scratchpad bytes but only %d of the %d-byte cap remain",
			sm.ID, t.id, slot, chSmem, t.capSmem-t.usedSmem, t.capSmem)
	}
	t.usedRegs += chRegs
	t.usedSmem += chSmem
	t.liveBlocks++
	if t.liveBlocks > t.st.MaxResidentTB {
		t.st.MaxResidentTB = t.liveBlocks
	}
	return nil
}

// releaseBlock returns a finished block's cap charges to its tenant's
// ledger, mirroring chargeBlock: the pair quantum is released only when
// the last side of the pair dies. The CorruptTenantCap fault skips the
// release, leaking the charge so the tenancy auditor must catch the
// ledger divergence.
func (sm *SM) releaseBlock(t *tenantCtx, bs int, partnerLive bool, now int64, ws int) {
	t.liveBlocks--
	t.st.BlocksCompleted++
	relRegs, relSmem := t.regsPerBlock, t.smemPerBlock
	ls := bs - t.blockBase
	if t.shr.Shared(ls) {
		if t.pairRegs > 0 {
			relRegs = t.pairRegs
			if partnerLive {
				relRegs = 0 // the surviving partner keeps the quantum
			}
		} else if t.pairSmem > 0 {
			relSmem = t.pairSmem
			if partnerLive {
				relSmem = 0
			}
		}
	}
	if relRegs > 0 || relSmem > 0 {
		if sm.faults.Armed(fault.CorruptTenantCap) && sm.faults.Trip(fault.CorruptTenantCap, now, sm.ID, ws,
			fmt.Sprintf("block in slot %d finished but its tenant cap charge (%d regs, %d smem) was not released", bs, relRegs, relSmem)) {
			return // injected leak: the ledger diverges from live blocks
		}
	}
	t.usedRegs -= relRegs
	t.usedSmem -= relSmem
}

// AuditTenancy verifies tenant isolation on this SM: every block slot is
// tagged with the tenant that owns its range, no sharing pair spans a
// tenant boundary, the cap ledger matches a from-scratch recount of the
// live blocks' charges, and no tenant exceeds its hard caps.
func (sm *SM) AuditTenancy() error {
	smLive := 0
	for ti := range sm.tens {
		t := &sm.tens[ti]
		wantRegs, wantSmem, live := 0, 0, 0
		for ls := 0; ls < t.nBlocks; ls++ {
			b := &sm.blocks[t.blockBase+ls]
			if b.tn != ti {
				return fmt.Errorf("SM%d: block slot %d in tenant %d's range is tagged for tenant index %d (cross-tenant slot corruption)",
					sm.ID, t.blockBase+ls, t.id, b.tn)
			}
			if p := t.shr.PartnerSlot(ls); p >= t.nBlocks {
				return fmt.Errorf("SM%d tenant %d: slot %d is paired with slot %d outside the tenant's %d slots (cross-tenant lease)",
					sm.ID, t.id, ls, p, t.nBlocks)
			}
			if !b.live {
				continue
			}
			live++
			chRegs, chSmem := t.regsPerBlock, t.smemPerBlock
			if t.shr.Shared(ls) {
				p := t.shr.PartnerSlot(ls)
				partnerLive := p >= 0 && sm.blocks[t.blockBase+p].live
				countPair := !partnerLive || ls < p
				if t.pairRegs > 0 {
					chRegs = 0
					if countPair {
						chRegs = t.pairRegs
					}
				} else if t.pairSmem > 0 {
					chSmem = 0
					if countPair {
						chSmem = t.pairSmem
					}
				}
			}
			wantRegs += chRegs
			wantSmem += chSmem
		}
		if wantRegs != t.usedRegs || wantSmem != t.usedSmem {
			return fmt.Errorf("SM%d tenant %d: cap ledger (regs %d, smem %d) disagrees with live-block recount (regs %d, smem %d) — lost or double cap release",
				sm.ID, t.id, t.usedRegs, t.usedSmem, wantRegs, wantSmem)
		}
		if live != t.liveBlocks {
			return fmt.Errorf("SM%d tenant %d: live-block counter %d but %d live blocks", sm.ID, t.id, t.liveBlocks, live)
		}
		smLive += live
		if t.capRegs > 0 && t.usedRegs > t.capRegs {
			return fmt.Errorf("SM%d tenant %d: register usage %d exceeds the %d-register cap", sm.ID, t.id, t.usedRegs, t.capRegs)
		}
		if t.capSmem > 0 && t.usedSmem > t.capSmem {
			return fmt.Errorf("SM%d tenant %d: scratchpad usage %d exceeds the %d-byte cap", sm.ID, t.id, t.usedSmem, t.capSmem)
		}
	}
	if smLive != sm.liveBlocks {
		return fmt.Errorf("SM%d: live-block counter %d but %d live blocks (Idle would misreport)", sm.ID, sm.liveBlocks, smLive)
	}
	return nil
}

// Tenants returns the number of tenants hosted on this SM.
func (sm *SM) Tenants() int { return len(sm.tens) }

// TenantID returns the global tenant index of local tenant i.
func (sm *SM) TenantID(i int) int { return sm.tens[i].id }

// TenantOfSlot returns the global tenant index owning a block slot.
func (sm *SM) TenantOfSlot(slot int) int { return sm.tens[sm.blocks[slot].tn].id }

// TenantSlots returns the block-slot range [base, base+n) owned by
// local tenant i.
func (sm *SM) TenantSlots(i int) (base, n int) {
	return sm.tens[i].blockBase, sm.tens[i].nBlocks
}

// TenantActiveBlocks returns local tenant i's live block count.
func (sm *SM) TenantActiveBlocks(i int) int { return sm.tens[i].liveBlocks }

// TenantStats returns a copy of local tenant i's per-tenant counters.
func (sm *SM) TenantStats(i int) stats.Tenant {
	st := sm.tens[i].st
	st.ResidentSlots = sm.tens[i].nBlocks
	return st
}
