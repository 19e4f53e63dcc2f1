package smcore

import (
	"slices"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/opt/unroll"
	"gpushare/internal/stats"
)

// TestClassReasonPrecedence pins the one table both tryIssue and the
// census walk evaluate: scoreboard, then execution unit / LSU, then the
// MSHR file, then the register lock — tryIssue's order, so a warp
// blocked for two reasons is charged to the same counter whether it was
// asked in full or passed over by popcount. kindReason is the unit and
// MSHR half; a lock wait is only ever counted for a warp whose kind is
// open.
func TestClassReasonPrecedence(t *testing.T) {
	cfg := config.Default()
	sm, _, _ := buildSM(t, cfg, depChainKernel(1), 1)
	const now = 100
	for _, c := range []struct {
		name             string
		kind             uint8
		memUsed, sfuUsed bool
		lsuBusy          int64
		mshrFull         bool
		want             uint8
	}{
		{"SFU warp counts unit when the SFU is taken", kindSFU, false, true, 0, false, reasonUnit},
		{"SFU warp with a free SFU is not blocked", kindSFU, true, false, now + 5, true, reasonNone},
		{"gmem warp counts unit, not mem-pipe, while the LSU is busy", kindGmem, false, false, now + 1, true, reasonUnit},
		{"gmem warp counts unit, not mem-pipe, when the LSU issued this cycle", kindGmem, true, false, 0, true, reasonUnit},
		{"gmem warp counts mem-pipe once the LSU is free", kindGmem, false, false, now, true, reasonMemPipe},
		{"gmem warp with LSU and MSHRs free is not blocked", kindGmem, false, true, 0, false, reasonNone},
		{"scratchpad access needs no MSHR", kindMem, false, false, 0, true, reasonNone},
		{"scratchpad access waits for the LSU", kindMem, false, false, now + 3, false, reasonUnit},
		{"SP warp is never blocked by a unit", kindSP, true, true, now + 5, true, reasonNone},
	} {
		sm.lsuBusy = c.lsuBusy
		sm.mshr = mem.NewLineTable[LoadRef]()
		if c.mshrFull {
			for line := 0; line < cfg.L1MSHRs; line++ {
				sm.mshr.Add(uint32(line), LoadRef{})
			}
		}
		if got := sm.kindReason(c.kind, now, c.memUsed, c.sfuUsed); got != c.want {
			t.Errorf("%s: reason %d, want %d", c.name, got, c.want)
		}
	}

	// The census sorts whole classes through the same table, for every
	// combination of the SM-wide inputs.
	fill := func(full bool) {
		sm.mshr = mem.NewLineTable[LoadRef]()
		for line := 0; full && line < cfg.L1MSHRs; line++ {
			sm.mshr.Add(uint32(line), LoadRef{})
		}
	}
	c := &sm.census[0]
	c.of[classScoreboard] = 1 << 5
	c.of[classClear+kindSFU] = 1<<0 | 1<<1
	c.of[classClear+kindGmem] = 1<<2 | 1<<3 | 1<<4
	c.of[classClear+kindSP] = 1 << 6
	c.of[classClear+kindMem] = 1 << 7
	c.lock = c.of[classClear+kindSFU]
	for in := range 16 {
		memUsed, sfuUsed := in&1 != 0, in&2 != 0
		sm.lsuBusy = 0
		if in&4 != 0 {
			sm.lsuBusy = now + 1
		}
		fill(in&8 != 0)
		var srt sorting
		sm.sort(c, &srt, now, memUsed, sfuUsed)
		for k := range numKinds {
			got, m := reasonNone, c.of[classClear+k]
			switch {
			case srt.unit&m == m:
				got = reasonUnit
			case srt.pipe&m == m:
				got = reasonMemPipe
			}
			if want := sm.kindReason(k, now, memUsed, sfuUsed); got != want {
				t.Errorf("inputs %04b, kind %d: sort says reason %d, kindReason %d", in, k, got, want)
			}
		}
	}

	// And charges them: two lock-waiting SFU warps, three gmem warps and a
	// scoreboard wait, SFU taken and LSU busy with a full MSHR file, are
	// five BlockUnit, one BlockScoreboard and nothing else.
	sm.lsuBusy = now + 1
	fill(true)
	var srt sorting
	sm.sort(c, &srt, now, false, true)
	before := sm.Stats
	if !sm.charge(c, span(0, 6), &srt) {
		t.Fatal("charging unit blocks reported no structural block")
	}
	want := before
	want.BlockUnit += 5
	want.BlockScoreboard++
	if sm.Stats != want {
		t.Errorf("charged %+v over %+v, want 5 unit and 1 scoreboard only", sm.Stats, before)
	}
	// With the SFU free the two SFU warps fall through to a lock wait that
	// is still current.
	sm.sort(c, &srt, now, false, false)
	before = sm.Stats
	sm.charge(c, span(0, 6), &srt)
	want = before
	want.BlockLockWait, want.SharedRegWaits, want.BlockUnit, want.BlockScoreboard = before.BlockLockWait+2, before.SharedRegWaits+2, before.BlockUnit+3, before.BlockScoreboard+1
	if sm.Stats != want {
		t.Errorf("charged %+v over %+v, want lock 2/2, unit 3 and scoreboard 1", sm.Stats, before)
	}
	// Once the lock generation moves, the waits seen before it are
	// dropped: those warps must be asked again.
	c.gen[0]++
	if got := sm.lockWaits(c); got != 0 || c.lock != 0 || c.gen[0] != sm.tens[0].shr.LockGen() {
		t.Errorf("lock waits %#x (census %#x at generation %d) survived a move to lock generation %d",
			got, c.lock, c.gen[0], sm.tens[0].shr.LockGen())
	}
}

// blockMixKernel keeps every block reason populated at once on a
// register-sharing SM. At t=0.1 and 36 registers/thread only r0..r2 are
// private, so a non-owner warp reaches the global load (and the dyn
// gate) on private registers, then waits on the Fig. 3 lock at the SFU
// op, whose destination is in the shared pool. Four lines per load keep
// the MSHR file full part of the time; the dependent arithmetic waits
// on the scoreboard.
func blockMixKernel() *kernel.Kernel {
	b := kernel.NewBuilder("blockmix", 256)
	b.Params(1).SetRegs(36)
	b.IMad(0, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.Shl(0, isa.Reg(0), isa.Imm(4))
	b.LdParam(1, 0)
	b.IAdd(0, isa.Reg(0), isa.Reg(1))
	b.MovI(2, 0)
	b.Label("loop")
	b.LdG(1, isa.Reg(0), 0)
	b.FSqrt(3, isa.Reg(1))
	b.IAdd(30, isa.Reg(1), isa.Reg(2))
	b.FAdd(3, isa.Reg(3), isa.Reg(30))
	b.IAdd(0, isa.Reg(0), isa.Imm(4))
	b.IAdd(2, isa.Reg(2), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(2), isa.Imm(6))
	b.BraIf(0, false, "loop", "done")
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

// smemMixKernel keeps the scratchpad lock contended on a
// scratchpad-sharing SM: 6000 bytes a block make the scratchpad the
// occupancy limit, and every access lands past a shared block's private
// region, so each needs the Fig. 4 lock. A global load per iteration
// feeds the dyn gate.
func smemMixKernel() *kernel.Kernel {
	b := kernel.NewBuilder("smemmix", 128)
	b.Params(1).SetRegs(12).SetSmem(6000)
	b.IMad(0, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.Shl(0, isa.Reg(0), isa.Imm(2))
	b.LdParam(1, 0)
	b.IAdd(0, isa.Reg(0), isa.Reg(1))
	b.Shl(2, isa.Sreg(isa.SrTid), isa.Imm(2))
	b.MovI(3, 0)
	b.Label("loop")
	b.LdG(4, isa.Reg(0), 0)
	b.StS(isa.Reg(2), 2048, isa.Reg(4))
	b.LdS(5, isa.Reg(2), 2048)
	b.FAdd(6, isa.Reg(5), isa.Reg(4))
	b.IAdd(3, isa.Reg(3), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(3), isa.Imm(4))
	b.BraIf(0, false, "loop", "done")
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

// TestCardsLockstepWithReference ticks a census SM and a reference-mode
// SM side by side, each on its own memory system, under every policy:
// register sharing with unroll and the dyn gate drawing random numbers,
// scratchpad sharing, and two co-scheduled tenants, blocks retiring and
// relaunching; in one co-scheduled row the first tenant's grid is
// smaller than its slots, so a slot is never launched. Every cycle the
// two must agree on every SM and tenant counter, and the census audit
// (a recount of every mask from the warps' own state) must hold.
// Midway each census SM is replaced by a fresh one restored from its
// checkpoint, whose census is rebuilt from nothing. At the end the rows
// together must have charged every block reason. (The name predates
// the census being the SM's only cache.)
func TestCardsLockstepWithReference(t *testing.T) {
	regs := func(pol config.SchedPolicy, unrolled bool) func(*config.Config) {
		return func(c *config.Config) {
			c.Sharing, c.T, c.Sched, c.DynWarp, c.UnrollRegs = config.ShareRegisters, 0.1, pol, true, unrolled
		}
	}
	smem := func(pol config.SchedPolicy) func(*config.Config) {
		return func(c *config.Config) {
			c.Sharing, c.T, c.Sched, c.DynWarp = config.ShareScratchpad, 0.1, pol, true
		}
	}
	cosched := func(pol config.SchedPolicy) func(*config.Config) {
		return func(c *config.Config) { c.Sched = pol }
	}
	mix := []*kernel.Kernel{blockMixKernel()}
	two := []*kernel.Kernel{benchKernelDim(192), blockMixKernel()}
	rows := []struct {
		name    string
		cfg     func(*config.Config)
		kernels []*kernel.Kernel
		grid0   int // the first tenant's grid when not the default
	}{
		{"owf/registers-unroll-dyn", regs(config.SchedOWF, true), mix, 0},
		{"lrr/registers-dyn", regs(config.SchedLRR, false), mix, 0},
		{"gto/registers-unroll-dyn", regs(config.SchedGTO, true), mix, 0},
		{"two-level/registers-dyn", regs(config.SchedTwoLevel, false), mix, 0},
		{"owf/scratchpad-dyn", smem(config.SchedOWF), []*kernel.Kernel{smemMixKernel()}, 0},
		{"lrr/scratchpad-dyn", smem(config.SchedLRR), []*kernel.Kernel{smemMixKernel()}, 0},
		{"lrr/cosched", cosched(config.SchedLRR), two, 0},
		{"lrr/cosched-short-grid", cosched(config.SchedLRR), two, 1},
		{"gto/cosched", cosched(config.SchedGTO), two, 0},
		{"two-level/cosched", cosched(config.SchedTwoLevel), two, 0},
	}
	const grid, restoreAt = 32, 3000
	var total stats.SM
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := config.Default()
			row.cfg(&cfg)
			var tls []TenantLaunch
			grids := make([]int, len(row.kernels))
			for ti, k := range row.kernels {
				grids[ti] = grid
				if ti == 0 && row.grid0 != 0 {
					grids[ti] = row.grid0
				}
				if cfg.UnrollRegs {
					k = unroll.Apply(k)
				}
				occ := core.ComputeOccupancy(&cfg, k)
				if len(row.kernels) > 1 {
					occ = core.Occupancy{Baseline: 2, Max: 2, Unshared: 2, PrivateRegs: k.RegsPerThread, PrivateSmem: k.SmemPerBlock}
				} else if occ.Pairs == 0 {
					t.Fatalf("%s kernel shares nothing: %+v", k.Name, occ)
				}
				tls = append(tls, TenantLaunch{ID: ti, Launch: &kernel.Launch{Kernel: k, GridDim: grids[ti]}, Occ: occ})
			}
			build := func(reference bool, ms *mem.System) *SM {
				c := cfg
				c.Reference = reference
				sm, err := NewMulti(1, &c, tls, ms) // SM 1: the dyn gate is live, not pinned to 0
				if err != nil {
					t.Fatal(err)
				}
				sm.SetDynProb(0.5)
				return sm
			}
			msA, msB := mem.NewSystem(&cfg), mem.NewSystem(&cfg)
			for ti := range tls {
				buf := msA.Global.Alloc(1 << 20)
				if msB.Global.Alloc(1<<20) != buf {
					t.Fatal("the two memory systems allocate differently")
				}
				tls[ti].Launch.Params = []uint32{buf, buf}
			}
			a, b := build(false, msA), build(true, msB)
			next := make([]int, len(tls))
			for slot := range a.blocks {
				ti := a.blocks[slot].tn
				if next[ti] == grids[ti] {
					continue
				}
				mustLaunch(t, a, slot, next[ti])
				mustLaunch(t, b, slot, next[ti])
				next[ti]++
			}
			restored := false
			now := int64(0)
			for ; now < 400000 && !a.Idle(); now++ {
				if now == restoreAt {
					ck := a.Checkpoint()
					a = build(false, msA)
					if err := a.RestoreState(now, ck); err != nil {
						t.Fatal(err)
					}
					restored = true
				}
				ia, err := a.Tick(now)
				if err != nil {
					t.Fatal(err)
				}
				ib, err := b.Tick(now)
				if err != nil {
					t.Fatal(err)
				}
				msA.Tick(now)
				msB.Tick(now)
				if ia != ib || a.Stats != b.Stats {
					t.Fatalf("cycle %d: census SM diverged from the reference (issued %v vs %v)\ncensus:    %+v\nreference: %+v",
						now, ia, ib, a.Stats, b.Stats)
				}
				for ti := range tls {
					if sa, sb := a.TenantStats(ti), b.TenantStats(ti); sa != sb {
						t.Fatalf("cycle %d: tenant %d diverged from the reference\ncensus:    %+v\nreference: %+v", now, ti, sa, sb)
					}
				}
				if err := a.AuditSnapshots(now); err != nil {
					t.Fatalf("cycle %d: %v", now, err)
				}
				fa, fb := a.FinishedSlots(), b.FinishedSlots()
				if !slices.Equal(fa, fb) {
					t.Fatalf("cycle %d: finished slots %v vs %v", now, fa, fb)
				}
				for _, slot := range fa {
					if ti := a.blocks[slot].tn; next[ti] < grids[ti] {
						mustLaunch(t, a, slot, next[ti])
						mustLaunch(t, b, slot, next[ti])
						next[ti]++
					}
				}
			}
			if !a.Idle() || !b.Idle() {
				t.Fatalf("run did not drain in %d cycles", now)
			}
			if !restored {
				t.Fatalf("run drained in %d cycles, before the restore at cycle %d", now, restoreAt)
			}
			st := &a.Stats
			total.BlockScoreboard += st.BlockScoreboard
			total.BlockUnit += st.BlockUnit
			total.BlockMemPipe += st.BlockMemPipe
			total.BlockLockWait += st.BlockLockWait
			total.SharedRegWaits += st.SharedRegWaits
			total.SharedMemWaits += st.SharedMemWaits
			total.BlockDynGate += st.BlockDynGate
		})
	}
	if total.BlockScoreboard == 0 || total.BlockUnit == 0 || total.BlockMemPipe == 0 || total.BlockLockWait == 0 ||
		total.SharedRegWaits == 0 || total.SharedMemWaits == 0 || total.BlockDynGate == 0 {
		t.Errorf("the rows missed a block reason: scoreboard %d unit %d mem-pipe %d lock %d (registers %d, scratchpad %d) dyn-gate %d",
			total.BlockScoreboard, total.BlockUnit, total.BlockMemPipe, total.BlockLockWait, total.SharedRegWaits, total.SharedMemWaits, total.BlockDynGate)
	}
}
