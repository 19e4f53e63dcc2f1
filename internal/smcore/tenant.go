package smcore

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
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
// working per tenant), its own static issue metadata, and its caps. What
// its blocks hold is never booked: it is core.Footprint of the live
// slots, recomputed where it is checked.
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

	capRegs, capSmem int // hard caps on this SM (0 = uncapped)

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
			id:        tl.ID,
			launch:    tl.Launch,
			occ:       tl.Occ,
			shr:       core.NewManager(cfg, tl.Occ, wpb),
			wpb:       wpb,
			blockBase: totalBlocks,
			nBlocks:   tl.Occ.Max,
			warpBase:  totalWarps,
			capRegs:   tl.CapRegs,
			capSmem:   tl.CapSmem,
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
		sm.dirtyList = append(sm.dirtyList, make([]int32, 0, n))
		inc, _ := sm.scheds[si].(sched.Incremental)
		var order []int // only the reference engine materialises rankings
		if sm.reference {
			inc = nil // legacy ranking everywhere on the recompute path
			order = make([]int, 0, n)
		}
		sm.schedOrder = append(sm.schedOrder, order)
		sm.incr = append(sm.incr, inc)
	}
	return sm, nil
}

// checkCaps prices tenant t's live blocks on this SM — plus tenant-local
// slot extra, a launch about to land there (-1 for none) — with the one
// rule, core.Footprint, and reports a total over its hard caps: a
// placement invariant violation. An uncapped tenant is never priced.
func (sm *SM) checkCaps(t *tenantCtx, extra int) error {
	if t.capRegs == 0 && t.capSmem == 0 {
		return nil
	}
	regs, smem := core.Footprint(sm.cfg, t.launch.Kernel, t.occ, func(ls int) bool {
		return ls == extra || sm.blocks[t.blockBase+ls].live
	})
	if t.capRegs > 0 && regs > t.capRegs {
		return fmt.Errorf("SM%d tenant %d: %d registers held, over the %d-register cap",
			sm.ID, t.id, regs, t.capRegs)
	}
	if t.capSmem > 0 && smem > t.capSmem {
		return fmt.Errorf("SM%d tenant %d: %d scratchpad bytes held, over the %d-byte cap",
			sm.ID, t.id, smem, t.capSmem)
	}
	return nil
}

// liveIn counts tenant t's live blocks on this SM.
func (sm *SM) liveIn(t *tenantCtx) int {
	n := 0
	for ls := 0; ls < t.nBlocks; ls++ {
		if sm.blocks[t.blockBase+ls].live {
			n++
		}
	}
	return n
}

// AuditTenancy verifies tenant isolation on this SM: every block slot is
// tagged with the tenant that owns its range, no sharing pair spans a
// tenant boundary, no tenant's live blocks hold more than its caps, and
// the SM's live-block counter matches its slots.
func (sm *SM) AuditTenancy() error {
	smLive := 0
	for ti := range sm.tens {
		t := &sm.tens[ti]
		for ls := 0; ls < t.nBlocks; ls++ {
			if b := &sm.blocks[t.blockBase+ls]; b.tn != ti {
				return fmt.Errorf("SM%d: block slot %d in tenant %d's range is tagged for tenant index %d (cross-tenant slot corruption)",
					sm.ID, t.blockBase+ls, t.id, b.tn)
			}
			if p := t.shr.PartnerSlot(ls); p >= t.nBlocks {
				return fmt.Errorf("SM%d tenant %d: slot %d is paired with slot %d outside the tenant's %d slots (cross-tenant lease)",
					sm.ID, t.id, ls, p, t.nBlocks)
			}
		}
		if err := sm.checkCaps(t, -1); err != nil {
			return err
		}
		smLive += sm.liveIn(t)
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

// TenantStats returns a copy of local tenant i's per-tenant counters.
func (sm *SM) TenantStats(i int) stats.Tenant {
	st := sm.tens[i].st
	st.ResidentSlots = sm.tens[i].nBlocks
	return st
}
