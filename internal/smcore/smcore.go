// Package smcore models one Streaming Multiprocessor: warp contexts, the
// per-cycle dual-scheduler issue stage with scoreboarding, SP/SFU/LSU
// execution pipelines, the per-SM L1 data cache with MSHRs, block-wide
// barriers, and the resource-sharing hooks (register/scratchpad lock
// checks at issue, Figs. 3 and 4 of the paper) plus the dynamic-warp-
// execution gate (§IV-C).
package smcore

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/mem/cache"
	"gpushare/internal/sched"
	"gpushare/internal/stats"
	"gpushare/internal/warp"
)

// loadGroup tracks one in-flight global load instruction: the warp it
// belongs to and how many line transactions are still outstanding.
type loadGroup struct {
	warpSlot  int
	remaining int
	regMask   uint64
	gen       uint32 // warp-slot generation the group belongs to
}

// wbEvent is a scheduled writeback: at its cycle it clears scoreboard
// bits or retires part of a load group.
type wbEvent struct {
	warpSlot int
	gen      uint32
	regMask  uint64
	predMask uint8
	group    *loadGroup // non-nil: decrement the group instead
}

// warpCtx is one hardware warp slot.
type warpCtx struct {
	w         *warp.State
	live      bool
	finished  bool
	atBarrier bool
	tn        int32 // index into sm.tens of the owning tenant (static)

	pendingRegs  uint64 // registers with outstanding writes
	pendingPreds uint8
	loadRegs     uint64 // subset of pendingRegs produced by global loads

	// gen increments on every block launch into this slot; stale
	// writeback events and load completions from a previous occupant
	// are discarded by comparing generations.
	gen uint32

	// pc caches nextPC() for the issue path. Derived, never checkpointed;
	// written where the PC can change: block launch, RestoreState, right
	// after Execute. It fills the struct's tail padding.
	pc int32
}

// nextPC reads the warp's next PC off the SIMT stack, -1 once it is empty.
func (wc *warpCtx) nextPC() int32 {
	if pc, _, ok := wc.w.PC(); ok {
		return int32(pc)
	}
	return -1
}

// blockCtx is one hardware thread-block slot. tn, warpBase, and wpb are
// static slot geometry assigned at SM construction (which tenant owns
// the slot and which warp slots serve it); LaunchBlock preserves them
// across occupants.
type blockCtx struct {
	live        bool
	ctaID       int
	smem        []byte
	activeWarps int // warps not yet finished
	arrived     int // warps waiting at the current barrier
	env         warp.Env

	tn       int // index into sm.tens of the owning tenant
	warpBase int // first warp slot serving this block slot
	wpb      int // warps per block for the owning tenant's kernel
}

// SM is one streaming multiprocessor.
type SM struct {
	ID  int
	cfg *config.Config

	// tens holds the tenants co-resident on this SM (tenant.go). The
	// single-tenant path built through New is tens of length 1; all
	// per-kernel state — launch, occupancy, sharing manager, issue
	// metadata — lives per tenant.
	tens []tenantCtx

	warps  []warpCtx
	blocks []blockCtx
	// liveBlocks counts blocks[i].live, so Idle and the SM's residency
	// high-water mark need no scan.
	liveBlocks int
	scheds     []sched.Scheduler
	// schedWarps[i] lists the warp slots scheduler i manages.
	schedWarps [][]int
	// incr[i] is scheds[i] when the policy maintains an incremental
	// ready ranking (sched.Incremental), nil otherwise.
	incr []sched.Incremental

	// Ready-set issue engine (meta.go). The static per-PC issue
	// metadata lives in each tenantCtx; schedInfo[i] caches scheduler
	// i's warp views (position-parallel to schedWarps[i], so the per-
	// scheduler buffers can never alias); dirty/dirtyList queue warps
	// whose snapshot inputs changed; slotSched/slotPos map a warp slot
	// to its scheduler and position.
	schedInfo  [][]sched.WarpInfo
	schedOrder [][]int // reference mode's materialised rankings
	dirty      []bool
	dirtyList  [][]int32
	slotSched  []int32
	slotPos    []int32
	reference  bool // Config.Reference: no cached views, cards or censuses

	// Issue cards and per-scheduler censuses (cards.go): cards is indexed
	// by warp slot, census by scheduler. Derived state, like the views.
	cards  []issueCard
	census []census

	l1       *cache.Cache
	mshr     *mem.LineTable[*loadGroup] // at most cfg.L1MSHRs lines
	memSys   *mem.System
	faults   *fault.Plan
	wb       wbWheel
	lsuBusy  int64 // LSU blocked until this cycle (bank conflicts)
	dynProb  float64
	rng      uint64
	nextDyn  int64
	finished []int // block slots that completed this cycle

	// groupFree recycles load groups within the SM.
	groupFree []*loadGroup

	Stats stats.SM

	// scratch buffers reused across cycles
	lineBuf   []uint32
	smemAddrs isa.Row // effective addresses of the scratchpad instruction being issued
	// walk is the cursor of the scheduler walk in progress and walked
	// the slots it has asked; schedulers walk one after another, so one
	// of each serves them all.
	walk   sched.Cursor
	walked []int
}

// New builds an SM for a single kernel launch: a one-tenant SM with no
// resource caps, laid out exactly as the pre-tenancy core. The sharing
// manager governs the pair slots defined by the occupancy.
func New(id int, cfg *config.Config, l *kernel.Launch, occ core.Occupancy, ms *mem.System) (*SM, error) {
	return NewMulti(id, cfg, []TenantLaunch{{Launch: l, Occ: occ}}, ms)
}

// SetFaults arms a fault-injection plan on this SM and its sharing
// managers (invariant-checker tests only).
func (sm *SM) SetFaults(p *fault.Plan) {
	sm.faults = p
	for i := range sm.tens {
		sm.tens[i].shr.Faults = p
	}
}

// Occupancy returns the SM's occupancy plan (first tenant's on a
// multi-tenant SM; per-tenant plans come from TenantStats/TenantSlots).
func (sm *SM) Occupancy() core.Occupancy { return sm.tens[0].occ }

// L1Stats returns the SM's L1 cache counters.
func (sm *SM) L1Stats() *stats.Cache { return &sm.l1.Stats }

// Sharing returns the first tenant's sharing manager (for tests).
func (sm *SM) Sharing() *core.Manager { return sm.tens[0].shr }

// SetDynProb sets the probability of issuing non-owner memory
// instructions (dynamic warp execution controller).
func (sm *SM) SetDynProb(p float64) {
	if sm.cfg.DynWarp && sm.ID == 0 {
		return // the reference SM stays disabled
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	sm.dynProb = p
	sm.Stats.DynProbFinal = p
}

// DynProb returns the current non-owner memory issue probability.
func (sm *SM) DynProb() float64 { return sm.dynProb }

// ActiveBlocks returns the number of live thread blocks.
func (sm *SM) ActiveBlocks() int { return sm.liveBlocks }

// FinishedSlots returns and clears the block slots that completed since
// the last call; the dispatcher refills them.
func (sm *SM) FinishedSlots() []int {
	s := sm.finished
	sm.finished = nil
	return s
}

// bindEnv builds the block's kernel environment from its CTA id, its
// scratchpad and its tenant's launch, for a fresh launch and a restore
// alike.
func (sm *SM) bindEnv(b *blockCtx) {
	t := &sm.tens[b.tn]
	k := t.launch.Kernel
	ctaX, ctaY := b.ctaID, 0
	if t.launch.GridDimY > 1 {
		ctaX, ctaY = b.ctaID%t.launch.GridDim, b.ctaID/t.launch.GridDim
	}
	b.env = warp.Env{
		CtaID:     ctaX,
		CtaIDY:    ctaY,
		GridDim:   t.launch.GridDim,
		GridDimY:  t.launch.GridDimY,
		BlockDim:  k.BlockDim,
		BlockDimY: k.BlockDimY,
		Params:    t.launch.Params,
		Gmem:      sm.memSys.Global,
		Smem:      b.smem,
	}
}

// LaunchBlock installs CTA ctaID into the given block slot. New blocks in
// a pair slot whose partner is live start as non-owner (ownership is
// already held by the surviving partner after a transfer). Launching
// into a slot that still runs a live block, or past the tenant's caps,
// is a dispatcher invariant violation and is reported as an error.
func (sm *SM) LaunchBlock(slot, ctaID int) error {
	b := &sm.blocks[slot]
	t := &sm.tens[b.tn]
	k := t.launch.Kernel
	if b.live {
		return fmt.Errorf("SM%d: double launch of CTA %d into live slot %d (occupied by CTA %d)",
			sm.ID, ctaID, slot, b.ctaID)
	}
	if err := sm.checkCaps(t, slot-t.blockBase); err != nil {
		return fmt.Errorf("launching CTA %d into slot %d: %w", ctaID, slot, err)
	}
	*b = blockCtx{
		live:        true,
		ctaID:       ctaID,
		smem:        b.smem,
		activeWarps: t.wpb,
		tn:          b.tn,
		warpBase:    b.warpBase,
		wpb:         b.wpb,
	}
	if k.SmemPerBlock > 0 {
		if b.smem == nil || len(b.smem) < k.SmemPerBlock+4 {
			// +4 tolerates word access at the last byte
			b.smem = make([]byte, k.SmemPerBlock+4)
		} else {
			clear(b.smem)
		}
	}
	sm.bindEnv(b)
	threadsLeft := k.Threads()
	for wi := 0; wi < t.wpb; wi++ {
		lanes := min(threadsLeft, kernel.WarpSize)
		threadsLeft -= lanes
		wc := &sm.warps[b.warpBase+wi]
		wc.w.Reset(warp.LanesMask(lanes))
		wc.w.BlockSlot = slot
		wc.w.BindBlock(&b.env, wi)
		wc.w.DynID = sm.nextDyn
		sm.nextDyn++
		wc.live = true
		wc.finished = false
		if wc.atBarrier {
			wc.atBarrier = false
			t.parked--
		}
		wc.pendingRegs = 0
		wc.pendingPreds = 0
		wc.loadRegs = 0
		wc.gen++
		wc.pc = wc.nextPC()
	}
	sm.markBlockDirty(slot)
	sm.Stats.BlocksLaunched++
	t.st.BlocksLaunched++
	if t.shr.Shared(slot - t.blockBase) {
		sm.Stats.BlocksShared++
	}
	sm.liveBlocks++
	sm.Stats.MaxResidentTB = max(sm.Stats.MaxResidentTB, sm.liveBlocks)
	t.st.MaxResidentTB = max(t.st.MaxResidentTB, sm.liveIn(t))
	return nil
}

// Idle reports whether the SM has no live blocks.
func (sm *SM) Idle() bool { return sm.liveBlocks == 0 }

// rand64 steps the SM's splitmix64 PRNG.
func (sm *SM) rand64() uint64 {
	sm.rng += 0x9e3779b97f4a7c15
	z := sm.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randFloat returns a uniform float in [0,1).
func (sm *SM) randFloat() float64 {
	return float64(sm.rand64()>>11) / (1 << 53)
}

// allocGroup takes a loadGroup from the SM's free list (or allocates
// one). Groups are returned by completeGroupPart when their last line
// retires; groups stranded by an injected fault are deliberately leaked.
func (sm *SM) allocGroup(ws, remaining int, regMask uint64, gen uint32) *loadGroup {
	if n := len(sm.groupFree); n > 0 {
		g := sm.groupFree[n-1]
		sm.groupFree = sm.groupFree[:n-1]
		*g = loadGroup{warpSlot: ws, remaining: remaining, regMask: regMask, gen: gen}
		return g
	}
	return &loadGroup{warpSlot: ws, remaining: remaining, regMask: regMask, gen: gen}
}
