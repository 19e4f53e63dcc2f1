package smcore

import (
	"reflect"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/sched"
)

// buildSM creates a single SM for a kernel with the whole launch grid
// equal to one block per test unless stated otherwise.
func buildSM(t *testing.T, cfg config.Config, k *kernel.Kernel, grid int, params ...uint32) (*SM, *mem.System, *kernel.Launch) {
	t.Helper()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	ms := mem.NewSystem(&cfg)
	l := &kernel.Launch{Kernel: k, GridDim: grid, Params: params}
	occ := core.ComputeOccupancy(&cfg, k)
	sm, err := NewMulti(0, &cfg, []TenantLaunch{{Launch: l, Occ: occ}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	return sm, ms, l
}

// mustLaunch installs a CTA into a slot, failing the test on a
// dispatcher invariant violation.
func mustLaunch(t *testing.T, sm *SM, slot, cta int) {
	t.Helper()
	if err := sm.LaunchBlock(slot, cta); err != nil {
		t.Fatal(err)
	}
}

// runToCompletion ticks SM and memory until all blocks retire.
func runToCompletion(t *testing.T, sm *SM, ms *mem.System, maxCycles int64) int64 {
	t.Helper()
	var now int64
	for now = 0; ; now++ {
		if now > maxCycles {
			t.Fatalf("SM did not finish within %d cycles", maxCycles)
		}
		if _, err := sm.Tick(now); err != nil {
			t.Fatal(err)
		}
		ms.Tick(now)
		sm.FinishedSlots()
		if sm.Idle() {
			return now
		}
	}
}

func depChainKernel(n int) *kernel.Kernel {
	b := kernel.NewBuilder("chain", 32)
	b.MovI(0, 1)
	for i := 0; i < n; i++ {
		b.IAdd(0, isa.Reg(0), isa.Imm(1)) // strict RAW chain
	}
	b.Exit()
	return b.MustBuild()
}

// TestScoreboardSerializesRAWChain: a single warp's dependent chain must
// take at least SPLat cycles per instruction.
func TestScoreboardSerializesRAWChain(t *testing.T) {
	cfg := config.Default()
	const n = 20
	sm, ms, _ := buildSM(t, cfg, depChainKernel(n), 1)
	mustLaunch(t, sm, 0, 0)
	cycles := runToCompletion(t, sm, ms, 100000)
	if min := int64(n * cfg.SPLat); cycles < min {
		t.Errorf("chain of %d finished in %d cycles, violates %d-cycle ALU latency", n, cycles, min)
	}
	if sm.Stats.IdleCycles == 0 {
		t.Error("a lone dependent chain leaves the issue stage idle (data waits)")
	}
	if sm.Stats.WarpInstrs != int64(n+2) {
		t.Errorf("warp instrs = %d, want %d", sm.Stats.WarpInstrs, n+2)
	}
}

// TestMoreWarpsHideLatency: the same chain across many warps interleaves.
func TestMoreWarpsHideLatency(t *testing.T) {
	cfg := config.Default()
	k := depChainKernel(30)
	sm1, ms1, _ := buildSM(t, cfg, k, 1)
	mustLaunch(t, sm1, 0, 0)
	single := runToCompletion(t, sm1, ms1, 100000)

	// 256-thread block: 8 warps of the same chain.
	b := kernel.NewBuilder("chain8", 256)
	b.MovI(0, 1)
	for i := 0; i < 30; i++ {
		b.IAdd(0, isa.Reg(0), isa.Imm(1))
	}
	b.Exit()
	k8 := b.MustBuild()
	sm8, ms8, _ := buildSM(t, cfg, k8, 1)
	mustLaunch(t, sm8, 0, 0)
	eight := runToCompletion(t, sm8, ms8, 100000)
	if eight > 2*single {
		t.Errorf("8 warps took %d cycles vs %d for 1: latency not hidden", eight, single)
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Warp 0 writes scratchpad, all warps barrier, warp 1 reads it.
	b := kernel.NewBuilder("barrier", 64)
	b.SetSmem(64).SetRegs(8)
	b.Mov(0, isa.Sreg(isa.SrTid))
	b.Setp(isa.CmpEQ, 0, isa.Reg(0), isa.Imm(0))
	b.Guard(0, false)
	b.StS(isa.Imm(0), 0, isa.Imm(42))
	b.Bar()
	b.LdS(1, isa.Imm(0), 0)
	b.Exit()
	k := b.MustBuild()

	cfg := config.Default()
	sm, ms, _ := buildSM(t, cfg, k, 1)
	mustLaunch(t, sm, 0, 0)
	runToCompletion(t, sm, ms, 100000)
	if sm.Stats.BarrierWaits == 0 {
		t.Error("expected some warp-cycles at the barrier")
	}
}

// TestBarrierWithEarlyExit: warps that exit before a barrier must not
// block the remaining warps (CUDA semantics for exited threads).
func TestBarrierWithEarlyExit(t *testing.T) {
	b := kernel.NewBuilder("earlyexit", 64)
	b.SetSmem(16).SetRegs(4)
	b.Mov(0, isa.Sreg(isa.SrWarpCta))
	b.Setp(isa.CmpEQ, 0, isa.Reg(0), isa.Imm(0))
	b.Guard(0, false)
	b.Exit() // warp 0 exits before the barrier
	b.Bar()
	b.Exit()
	k := b.MustBuild()
	cfg := config.Default()
	sm, ms, _ := buildSM(t, cfg, k, 1)
	mustLaunch(t, sm, 0, 0)
	runToCompletion(t, sm, ms, 100000) // must not hang
}

// TestIdleVsStallClassification follows the paper's definitions: a lone
// warp whose next instruction waits on an in-flight result has "issued
// all available work" — those cycles are idle, not pipeline stalls.
// Structural conflicts (here: two warps fighting over the single SFU
// port) are stalls.
func TestIdleVsStallClassification(t *testing.T) {
	cfg := config.Default()
	sm, ms, _ := buildSM(t, cfg, depChainKernel(40), 1)
	mustLaunch(t, sm, 0, 0)
	runToCompletion(t, sm, ms, 100000)
	if sm.Stats.IdleCycles == 0 {
		t.Error("no idle cycles recorded for a dependent chain (data waits)")
	}
	if sm.Stats.StallCycles != 0 {
		t.Errorf("stall cycles = %d with no structural hazards", sm.Stats.StallCycles)
	}
	total := sm.Stats.Cycles
	productive := total - sm.Stats.StallCycles - sm.Stats.IdleCycles
	if productive != sm.Stats.WarpInstrs {
		t.Errorf("single-warp accounting: productive %d != instrs %d", productive, sm.Stats.WarpInstrs)
	}

	// Structural hazards produce stalls: 32-way scratchpad bank
	// conflicts occupy the LSU for 31 extra cycles per access, blocking
	// the next (independent) access with nothing else to issue.
	b := kernel.NewBuilder("bankfight", 32)
	b.SetSmem(4096).SetRegs(8)
	b.Shl(0, isa.Sreg(isa.SrLane), isa.Imm(7)) // lane*128: all lanes on bank 0
	for i := 0; i < 10; i++ {
		b.LdS(1+i%2, isa.Reg(0), 0)
	}
	b.Exit()
	k := b.MustBuild()
	sm2, ms2, _ := buildSM(t, cfg, k, 1)
	mustLaunch(t, sm2, 0, 0)
	runToCompletion(t, sm2, ms2, 100000)
	if sm2.Stats.StallCycles == 0 {
		t.Error("bank-conflict LSU serialization must register as stalls")
	}
	if sm2.Stats.BankConflicts == 0 {
		t.Error("bank conflicts not counted")
	}
}

// TestGlobalLoadRoundTrip: a load's value must land before a dependent
// store issues; the memory system supplies the timing.
func TestGlobalLoadRoundTrip(t *testing.T) {
	b := kernel.NewBuilder("ld", 32)
	b.Params(2).SetRegs(8)
	b.LdParam(0, 0)
	b.LdParam(1, 1)
	b.LdG(2, isa.Reg(0), 0)
	b.IAdd(2, isa.Reg(2), isa.Imm(1))
	b.StG(isa.Reg(1), 0, isa.Reg(2))
	b.Exit()
	k := b.MustBuild()

	cfg := config.Default()
	ms := mem.NewSystem(&cfg)
	in := ms.Global.Alloc(128)
	out := ms.Global.Alloc(128)
	ms.Global.Store32(in, 41)
	l := &kernel.Launch{Kernel: k, GridDim: 1, Params: []uint32{in, out}}
	occ := core.ComputeOccupancy(&cfg, k)
	sm, err := NewMulti(0, &cfg, []TenantLaunch{{Launch: l, Occ: occ}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	mustLaunch(t, sm, 0, 0)
	cycles := runToCompletion(t, sm, ms, 100000)
	if got := ms.Global.Load32(out); got != 42 {
		t.Errorf("store-after-load = %d, want 42", got)
	}
	// The dependent chain must include the full memory round trip.
	if cycles < int64(2*cfg.IcntLat) {
		t.Errorf("%d cycles is faster than the interconnect alone", cycles)
	}
	if sm.Stats.CoalescedAccess == 0 {
		t.Error("no coalesced accesses counted")
	}
}

// TestDynGateBlocksNonOwnerMemOnSM0: on the reference SM (id 0) with
// dynamic warp execution, a non-owner warp's global loads are gated
// until ownership transfers.
func TestDynGateBlocksNonOwnerMemOnSM0(t *testing.T) {
	b := kernel.NewBuilder("dyngate", 256)
	b.Params(1).SetRegs(36)
	// The prologue (param + load) uses only private registers r0..r2, so
	// a non-owner warp reaches the global load — and the dyn gate —
	// before its first shared-register access (r10).
	b.LdParam(0, 0)
	b.LdG(1, isa.Reg(0), 0)
	b.MovI(10, 7)
	b.IAdd(10, isa.Reg(10), isa.Reg(1))
	b.Exit()
	k := b.MustBuild()

	cfg := config.Default()
	cfg.Sharing = config.ShareRegisters
	cfg.T = 0.1
	cfg.DynWarp = true
	ms := mem.NewSystem(&cfg)
	addr := ms.Global.Alloc(128)
	l := &kernel.Launch{Kernel: k, GridDim: 4, Params: []uint32{addr}}
	occ := core.ComputeOccupancy(&cfg, k)
	if occ.Pairs == 0 {
		t.Skip("test kernel unexpectedly not register-limited")
	}
	sm, err := NewMulti(0, &cfg, []TenantLaunch{{Launch: l, Occ: occ}}, ms)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < occ.Max; slot++ {
		mustLaunch(t, sm, slot, slot)
	}
	var now int64
	for now = 0; !sm.Idle() && now < 200000; now++ {
		if _, err := sm.Tick(now); err != nil {
			t.Fatal(err)
		}
		ms.Tick(now)
		for _, s := range sm.FinishedSlots() {
			_ = s
		}
	}
	if sm.Stats.BlockDynGate == 0 {
		t.Error("no dyn-gate blocks recorded on the reference SM")
	}
	if sm.dynProb != 0 {
		t.Error("SM0's probability must stay 0")
	}
	sm.SetDynProb(0.7)
	if sm.dynProb != 0 {
		t.Error("SetDynProb must not override the reference SM")
	}
}

// TestSharedRegLockStallsPartner: in a pair, the second block's warps
// record lock waits once the first block owns the shared pool.
func TestSharedRegLockStallsPartner(t *testing.T) {
	b := kernel.NewBuilder("lockstall", 256)
	b.SetRegs(36)
	b.MovI(10, 1) // immediately claims a shared-pool register
	for i := 0; i < 50; i++ {
		b.IAdd(10, isa.Reg(10), isa.Imm(1))
	}
	b.Exit()
	k := b.MustBuild()

	cfg := config.Default()
	cfg.Sharing = config.ShareRegisters
	cfg.T = 0.1
	sm, ms, _ := buildSM(t, cfg, k, 16)
	occ := sm.tens[0].occ
	if occ.Pairs == 0 {
		t.Fatalf("expected pairs, got %+v", occ)
	}
	for slot := 0; slot < occ.Max; slot++ {
		mustLaunch(t, sm, slot, slot)
	}
	runToCompletion(t, sm, ms, 200000)
	if sm.Stats.SharedRegWaits == 0 {
		t.Error("partner warps never waited on the shared-register lock")
	}
	sm.FinalizeStats()
	if sm.Stats.LockAcquires == 0 {
		t.Error("no lock acquisitions recorded")
	}
}

// TestRFBankConflictModel: with the Fig. 3 register-file bank model
// enabled, an instruction whose sources share a bank takes longer than
// one whose sources do not; results are unchanged.
func TestRFBankConflictModel(t *testing.T) {
	build := func(srcB int) *kernel.Kernel {
		b := kernel.NewBuilder("rf", 32)
		b.SetRegs(36)
		b.MovI(0, 1)
		b.MovI(srcB, 2)
		for i := 0; i < 40; i++ {
			// r1 = r0 op rSrcB, then chain back into r0.
			b.IAdd(1, isa.Reg(0), isa.Reg(srcB))
			b.IAdd(0, isa.Reg(1), isa.Imm(1))
		}
		b.Exit()
		return b.MustBuild()
	}

	run := func(k *kernel.Kernel, banks int) int64 {
		cfg := config.Default()
		cfg.RFBanks = banks
		sm, ms, _ := buildSM(t, cfg, k, 1)
		mustLaunch(t, sm, 0, 0)
		return runToCompletion(t, sm, ms, 100000)
	}

	conflicting := build(16) // r0 and r16 share bank 0 of 16
	clean := build(17)       // r0 and r17 do not
	if got := run(conflicting, 0); got != run(clean, 0) {
		t.Error("model disabled: bank layout must not matter")
	}
	slow := run(conflicting, 16)
	fast := run(clean, 16)
	if slow <= fast {
		t.Errorf("conflicting sources (%d cycles) not slower than clean (%d)", slow, fast)
	}
}

// TestSchedulerViewBuffersIndependent is the regression test for the
// scheduler-buffer aliasing hazard: with two schedulers live on one SM,
// one scheduler rebuilding its warp views or ranking must never disturb
// the other's. The buffers are per-scheduler; before the ready-set
// engine they were shared across the per-cycle scheduler loop.
func TestSchedulerViewBuffersIndependent(t *testing.T) {
	for _, mode := range []struct {
		name      string
		reference bool
	}{{"snapshots", false}, {"nosnapshot", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Reference = mode.reference
			b := kernel.NewBuilder("multi", 128) // 4 warps: two per scheduler
			b.MovI(0, 1)
			for i := 0; i < 30; i++ {
				b.IAdd(0, isa.Reg(0), isa.Imm(1))
			}
			b.Exit()
			sm, ms, _ := buildSM(t, cfg, b.MustBuild(), 1)
			mustLaunch(t, sm, 0, 0)
			if len(sm.scheds) < 2 {
				t.Fatalf("need two live schedulers, have %d", len(sm.scheds))
			}
			for si := range sm.scheds {
				if len(sm.schedWarps[si]) == 0 {
					t.Fatalf("scheduler %d has no warps", si)
				}
			}

			// Each scheduler's views are position-parallel to its own
			// warp set — never another scheduler's slots.
			for si := range sm.scheds {
				sm.rebuildAll(si)
				for pos, ws := range sm.schedWarps[si] {
					if got := sm.schedInfo[si][pos].Slot; got != ws {
						t.Fatalf("scheduler %d views slot %d at position %d, want %d", si, got, pos, ws)
					}
				}
			}

			// Rank scheduler 0 into its own buffers, then rebuild and
			// rank scheduler 1: scheduler 0's views and ranking must
			// come through untouched.
			views0 := append([]sched.WarpInfo(nil), sm.rebuildAll(0)...)
			order0 := sm.scheds[0].Order(sm.schedInfo[0], sm.schedOrder[0][:0])
			saved0 := append([]int(nil), order0...)

			sm.rebuildAll(1)
			order1 := sm.scheds[1].Order(sm.schedInfo[1], sm.schedOrder[1][:0])

			if !reflect.DeepEqual(views0, sm.schedInfo[0]) {
				t.Errorf("scheduler 1's rebuild clobbered scheduler 0's views:\nbefore %+v\nafter  %+v", views0, sm.schedInfo[0])
			}
			if !reflect.DeepEqual(saved0, order0) {
				t.Errorf("scheduler 1's ranking clobbered scheduler 0's: saved %v, now %v", saved0, order0)
			}
			for _, slot := range order1 {
				if sm.slotSched[slot] != 1 {
					t.Errorf("scheduler 1 ranked slot %d, owned by scheduler %d", slot, sm.slotSched[slot])
				}
			}

			runToCompletion(t, sm, ms, 100000)
		})
	}
}
