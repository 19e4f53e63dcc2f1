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
)

// TenantLaunch describes one tenant's share of an SM: its kernel launch
// and the occupancy the placement granted it on this SM. A tenant's
// blocks only ever run in its own slots, so what it can hold is
// core.Footprint of that occupancy with every slot live, and NewMulti
// refuses a tenant set whose footprints overfill the SM.
type TenantLaunch struct {
	ID     int // global tenant index (stable across SMs)
	Launch *kernel.Launch
	Occ    core.Occupancy

	// Prog is NewProgram(cfg, Launch.Kernel, Occ), built once by the
	// caller and shared by every SM that hosts this tenant under this
	// occupancy. nil makes the SM lower the kernel itself.
	Prog *Program
}

// tenantCtx is one tenant's state on an SM. Each tenant owns a
// contiguous range of block slots [blockBase, blockBase+occ.Max) and
// warp slots [warpBase, warpBase+occ.Max*wpb), its own sharing manager
// (pair slots are tenant-local, so intra-kernel resource sharing keeps
// working per tenant) and its own static issue metadata. What its
// blocks hold is never booked: it is core.Footprint of the live slots,
// recomputed where it is checked.
type tenantCtx struct {
	id     int // global tenant index
	launch *kernel.Launch
	occ    core.Occupancy
	shr    *core.Manager
	wpb    int // warps per block for this tenant's kernel

	meta         []metaEntry // the tenant's Program, indexed by PC
	futureShared []bool

	blockBase int // first block slot owned by this tenant
	warpBase  int // first warp slot owned by this tenant

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
//
// The SM is a spare when the spare list has one (Recycle): the new
// layout then lies in the spare's storage wherever that is large
// enough — register files, warp states and SIMT stacks, the warp, block
// and per-scheduler tables, the L1 tag array, scratchpads, the MSHR and
// writeback arenas — and Reset leaves it in exactly the state a build
// from nothing has.
func NewMulti(id int, cfg *config.Config, tens []TenantLaunch, ms *mem.System) (*SM, error) {
	if len(tens) == 0 {
		return nil, fmt.Errorf("SM%d: no tenants", id)
	}
	// A build that fails leaves its spare to the garbage collector.
	sm := takeSpare()
	sm.ID, sm.cfg, sm.memSys = id, cfg, ms
	sm.tens = sm.tens[:0]
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
			warpBase:  totalWarps,
		}
		prog := tl.Prog
		if prog == nil {
			prog = NewProgram(cfg, k, tl.Occ)
		}
		t.meta, t.futureShared = prog.meta, prog.futureShared
		totalBlocks += tl.Occ.Max
		totalWarps += tl.Occ.Max * wpb
		totalThreads += tl.Occ.Max * k.Threads()
		sm.tens = append(sm.tens, t)
	}
	// The one capacity rule, checked once: every granted slot live fits
	// the SM in all four dimensions.
	regs, smem := sm.footprint(func(int) bool { return true })
	for _, c := range []struct {
		n, limit   int
		what, unit string
	}{
		{totalBlocks, cfg.MaxBlocksPerSM, "block slots", "block"},
		{totalThreads, cfg.MaxThreadsPerSM, "resident threads", "thread"},
		{regs, cfg.RegsPerSM, "registers", "register"},
		{smem, cfg.SmemPerSM, "scratchpad bytes", "byte"},
	} {
		if c.n > c.limit {
			return nil, fmt.Errorf("SM%d: placement grants %d %s, exceeding the %d-%s SM limit", id, c.n, c.what, c.limit, c.unit)
		}
	}

	if sm.l1 == nil {
		sm.l1 = cache.NewWithPolicy(cfg.L1Sets, cfg.L1Ways, cfg.L1LineSz, cfg.L1Policy)
		sm.mshr = mem.NewLineTable[LoadRef]()
	} else {
		sm.l1.Reshape(cfg.L1Sets, cfg.L1Ways, cfg.L1LineSz, cfg.L1Policy)
	}

	sm.warps = resize(sm.warps, totalWarps)
	clear(sm.warps[totalWarps:cap(sm.warps)]) // a longer layout's warps would keep its states
	sm.blocks = resize(sm.blocks, totalBlocks)
	// One arena for every warp's state, registers and SIMT stack; one
	// array for their line counts (one per register) and the audit's
	// recount of them.
	sm.nregs = resize(sm.nregs, totalWarps)
	nregs := sm.nregs
	lines := 0
	for ti := range sm.tens {
		t := &sm.tens[ti]
		for ls := 0; ls < t.occ.Max; ls++ {
			b := &sm.blocks[t.blockBase+ls]
			// A spare's scratchpad keeps its array for LaunchBlock.
			*b = blockCtx{smem: b.smem[:0], tn: ti, warpBase: t.warpBase + ls*t.wpb, wpb: t.wpb}
		}
		for wi := 0; wi < t.occ.Max*t.wpb; wi++ {
			ws := t.warpBase + wi
			nregs[ws] = t.launch.Kernel.RegsPerThread
			sm.warps[ws] = warpCtx{tn: int32(ti), lineBase: int32(lines)}
			lines += nregs[ws]
		}
	}
	states := sm.states.Layout(nregs)
	for ws := range sm.warps {
		sm.warps[ws].w = &states[ws]
		states[ws].ID = ws
	}
	sm.lines = resize(sm.lines, 2*lines)
	clear(sm.lines)
	sm.lineCount, sm.recount = sm.lines[:lines:lines], sm.lines[lines:]

	// Each per-scheduler list is a capped window of one array per kind,
	// sized from the warp count: scheduler si manages warp slots si,
	// si+N, si+2N, ... of N schedulers.
	nsched, nwarps := cfg.NumSchedulers, len(sm.warps)
	sm.reference = cfg.Reference
	sm.dirty = resize(sm.dirty, nwarps)
	sm.slots = resize(sm.slots, 3*nwarps) // slotSched, slotPos, dirtyList
	sm.slotSched, sm.slotPos = sm.slots[:nwarps], sm.slots[nwarps:2*nwarps]
	dirtyBuf := sm.slots[2*nwarps:]
	sm.warpBuf = resize(sm.warpBuf, nwarps)
	sm.infoBuf = resize(sm.infoBuf, nwarps)
	var orderBuf []int // only the reference engine materialises rankings
	if sm.reference {
		sm.orderBuf = resize(sm.orderBuf, nwarps)
		orderBuf = sm.orderBuf
	}
	sm.schedWarps = resize(sm.schedWarps, nsched)
	sm.schedInfo = resize(sm.schedInfo, nsched)
	sm.dirtyList = resize(sm.dirtyList, nsched)
	sm.schedOrder = resize(sm.schedOrder, nsched)
	sm.scheds = resize(sm.scheds, nsched)
	sm.incr = resize(sm.incr, nsched)
	sm.census = resize(sm.census, nsched)
	sm.counts = resize(sm.counts, nsched*len(sm.tens))
	at := 0
	for si := range nsched {
		n := (nwarps - si + nsched - 1) / nsched
		ws := sm.warpBuf[at : at+n : at+n]
		for pos := range ws {
			ws[pos] = si + pos*nsched
			sm.slotSched[ws[pos]] = int32(si)
			sm.slotPos[ws[pos]] = int32(pos)
		}
		sm.schedWarps[si] = ws
		sm.schedInfo[si] = sm.infoBuf[at : at+n : at+n]
		sm.dirtyList[si] = dirtyBuf[at : at : at+n]
		sm.schedOrder[si] = nil
		if orderBuf != nil {
			sm.schedOrder[si] = orderBuf[at : at : at+n]
		}
		at += n
		sm.census[si].ten = sm.counts[si*len(sm.tens) : (si+1)*len(sm.tens) : (si+1)*len(sm.tens)]
	}
	sm.Reset()
	return sm, nil
}

// Reset returns the SM to exactly the state NewMulti built it in: a cold
// L1; no live block or warp, scheduled writeback, MSHR line or
// outstanding load line; fresh schedulers, views and censuses; zeroed SM
// and tenant statistics and sharing managers; and the seed and counters
// NewMulti starts from. Buffers keep their capacity — register files,
// scratchpads, the MSHR file, the writeback wheel's arena — so resetting
// allocates next to nothing. A time-slice run resets a tenant's SMs at
// each of its slices after the first instead of building them again.
func (sm *SM) Reset() {
	cfg := sm.cfg
	sm.l1.Reset()
	sm.mshr.Reset()
	sm.wb.reset()
	sm.lsuBusy, sm.nextDyn, sm.finished = 0, 0, nil
	sm.dynProb = 1
	if cfg.DynWarp && sm.ID == 0 {
		// SM0 is the reference SM: non-owner memory instructions are
		// disabled on it (§IV-C).
		sm.dynProb = 0
	}
	sm.rng = cfg.Seed ^ (uint64(sm.ID)+1)*0x9e3779b97f4a7c15
	sm.Stats = stats.SM{}
	sm.liveBlocks = 0
	for i := range sm.tens {
		t := &sm.tens[i]
		t.shr.Reset()
		t.parked = 0
		t.st = stats.Tenant{SMs: 1}
	}
	for ws := range sm.warps {
		wc := &sm.warps[ws]
		wc.w.Clear()
		*wc = warpCtx{w: wc.w, tn: wc.tn, lineBase: wc.lineBase}
	}
	clear(sm.lineCount)
	for i := range sm.blocks {
		b := &sm.blocks[i]
		*b = blockCtx{smem: b.smem, tn: b.tn, warpBase: b.warpBase, wpb: b.wpb}
	}
	waitingLong := sm.waitingLong
	for si := range sm.scheds {
		sm.scheds[si] = sched.New(cfg.Sched, cfg.TwoLevelGroup, waitingLong)
		inc, _ := sm.scheds[si].(sched.Incremental)
		if sm.reference {
			inc = nil // legacy ranking everywhere on the recompute path
		}
		sm.incr[si] = inc
		for pos, ws := range sm.schedWarps[si] {
			sm.schedInfo[si][pos] = sched.WarpInfo{Slot: ws}
		}
		sm.dirtyList[si] = sm.dirtyList[si][:0]
		if sm.schedOrder[si] != nil {
			sm.schedOrder[si] = sm.schedOrder[si][:0]
		}
		clear(sm.census[si].ten)
		sm.census[si] = census{ten: sm.census[si].ten}
	}
	clear(sm.dirty)
	sm.walk = sched.Cursor{}
}

// footprint prices the block slots held reports occupied with the one
// rule, core.Footprint, summed over every tenant on this SM: NewMulti
// prices every granted slot, the tenancy audit the live ones.
func (sm *SM) footprint(held func(slot int) bool) (regs, smem int) {
	for ti := range sm.tens {
		t := &sm.tens[ti]
		r, s := core.Footprint(sm.cfg, t.launch.Kernel, t.occ, func(ls int) bool { return held(t.blockBase + ls) })
		regs, smem = regs+r, smem+s
	}
	return regs, smem
}

// liveIn counts tenant t's live blocks on this SM.
func (sm *SM) liveIn(t *tenantCtx) int {
	n := 0
	for ls := 0; ls < t.occ.Max; ls++ {
		if sm.blocks[t.blockBase+ls].live {
			n++
		}
	}
	return n
}

// AuditTenancy verifies tenant isolation on this SM: every block slot is
// tagged with the tenant that owns its range, no sharing pair spans a
// tenant boundary, the live blocks of all tenants fit the SM's registers
// and scratchpad, and the SM's live-block counter matches its slots.
func (sm *SM) AuditTenancy() error {
	smLive := 0
	for ti := range sm.tens {
		t := &sm.tens[ti]
		for ls := 0; ls < t.occ.Max; ls++ {
			if b := &sm.blocks[t.blockBase+ls]; b.tn != ti {
				return fmt.Errorf("SM%d: block slot %d in tenant %d's range is tagged for tenant index %d (cross-tenant slot corruption)",
					sm.ID, t.blockBase+ls, t.id, b.tn)
			}
			if p := t.shr.PartnerSlot(ls); p >= t.occ.Max {
				return fmt.Errorf("SM%d tenant %d: slot %d is paired with slot %d outside the tenant's %d slots (cross-tenant lease)",
					sm.ID, t.id, ls, p, t.occ.Max)
			}
		}
		smLive += sm.liveIn(t)
	}
	if regs, smem := sm.footprint(func(s int) bool { return sm.blocks[s].live }); regs > sm.cfg.RegsPerSM || smem > sm.cfg.SmemPerSM {
		return fmt.Errorf("SM%d: live blocks hold %d registers and %d scratchpad bytes, over the SM's %d and %d",
			sm.ID, regs, smem, sm.cfg.RegsPerSM, sm.cfg.SmemPerSM)
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
	return sm.tens[i].blockBase, sm.tens[i].occ.Max
}

// TenantStats returns a copy of local tenant i's per-tenant counters.
func (sm *SM) TenantStats(i int) stats.Tenant {
	st := sm.tens[i].st
	st.ResidentSlots = sm.tens[i].occ.Max
	return st
}
