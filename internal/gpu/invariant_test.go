package gpu

import (
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// loadIncKernel increments every element of a global buffer in place:
// the dependent load-add-store chain keeps memory replies on the
// critical path, so a dropped reply wedges the warp.
func loadIncKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("loadinc", 128)
	b.Params(1).SetRegs(8)
	b.Mov(0, isa.Sreg(isa.SrTid))
	b.Mov(1, isa.Sreg(isa.SrCtaid))
	b.IMad(0, isa.Reg(1), isa.Sreg(isa.SrNtid), isa.Reg(0))
	b.Shl(0, isa.Reg(0), isa.Imm(2))
	b.LdParam(2, 0)
	b.IAdd(0, isa.Reg(0), isa.Reg(2))
	b.LdG(3, isa.Reg(0), 0)
	b.IAdd(3, isa.Reg(3), isa.Imm(1))
	b.StG(isa.Reg(0), 0, isa.Reg(3))
	b.Exit()
	return b.MustBuild()
}

// leaseKernel is register-hungry enough to form sharing pairs; every
// warp acquires the pair lock at its first r10 access and releases it on
// completion, giving the lease-corruption fault plenty of opportunities.
// Warp 0 finishes long before the rest of its block (the other warps
// chase a chain of dependent global loads), so a corrupted release
// leaves the pair's lease accounting inconsistent for hundreds of
// cycles while the block is still live — spanning many audit strides.
func leaseKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("lease", 256)
	b.SetRegs(36)
	b.MovI(10, 1)
	for i := 0; i < 60; i++ {
		b.IAdd(10, isa.Reg(10), isa.Imm(1))
	}
	b.Mov(0, isa.Sreg(isa.SrTid))
	b.Setp(isa.CmpGE, 0, isa.Reg(0), isa.Imm(32))
	b.MovI(1, 0)
	for i := 0; i < 3; i++ {
		b.Guard(0, false)
		b.LdG(1, isa.Reg(1), 0)
	}
	b.Exit()
	return b.MustBuild()
}

// barrierKernel synchronizes 4 warps around a scratchpad handoff.
func barrierKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("barrier", 128)
	b.SetSmem(64).SetRegs(8)
	b.Mov(0, isa.Sreg(isa.SrTid))
	b.Setp(isa.CmpEQ, 0, isa.Reg(0), isa.Imm(0))
	b.Guard(0, false)
	b.StS(isa.Imm(0), 0, isa.Imm(42))
	b.Bar()
	b.LdS(1, isa.Imm(0), 0)
	b.Exit()
	return b.MustBuild()
}

// TestFaultInjectionCaughtByInvariants proves the tentpole property:
// every fault class the injector can produce is detected by the auditor
// as a typed invariant violation with a forensic dump — never a
// wrong-but-clean result.
func TestFaultInjectionCaughtByInvariants(t *testing.T) {
	cases := []struct {
		name  string
		kind  fault.Kind
		seed  uint64
		setup func(t *testing.T) (*Sim, *kernel.Launch)
	}{
		{
			name: "drop-mem-reply", kind: fault.DropMemReply, seed: 7,
			setup: func(t *testing.T) (*Sim, *kernel.Launch) {
				cfg := config.Default()
				cfg.NumSMs = 2
				cfg.InvariantStride = 32
				sim := MustNew(cfg)
				buf := sim.Mem.Alloc(4 * 128 * 8)
				return sim, &kernel.Launch{Kernel: loadIncKernel(t), GridDim: 8, Params: []uint32{buf}}
			},
		},
		{
			name: "corrupt-lease-release", kind: fault.CorruptLeaseRelease, seed: 11,
			setup: func(t *testing.T) (*Sim, *kernel.Launch) {
				cfg := config.Default()
				cfg.NumSMs = 2
				cfg.Sharing = config.ShareRegisters
				cfg.T = 0.1
				cfg.InvariantStride = 32
				sim := MustNew(cfg)
				return sim, &kernel.Launch{Kernel: leaseKernel(t), GridDim: 16}
			},
		},
		{
			// The ready-set engine's own fault: a warp finishes but its
			// cached scheduler snapshot is not invalidated, so the
			// scheduler keeps ranking it as having work. The snapshot
			// auditor must catch the skipped invalidation. leaseKernel's
			// staggered warp completion keeps the block (and the stale
			// view) live across many audit strides.
			name: "stale-snapshot", kind: fault.StaleSnapshot, seed: 5,
			setup: func(t *testing.T) (*Sim, *kernel.Launch) {
				cfg := config.Default()
				cfg.NumSMs = 2
				cfg.InvariantStride = 32
				sim := MustNew(cfg)
				return sim, &kernel.Launch{Kernel: leaseKernel(t), GridDim: 16}
			},
		},
		{
			// The same fault at its other site: an issue or a load
			// completion flips a warp's WaitingLong but the in-place view
			// patch is skipped. Only the two-level policy ranks on the
			// field, so only under it is this an opportunity; loadinc's
			// load-use pair flips it at the load's issue and again when
			// the line lands hundreds of cycles later.
			name: "stale-view-patch", kind: fault.StaleSnapshot, seed: 5,
			setup: func(t *testing.T) (*Sim, *kernel.Launch) {
				cfg := config.Default()
				cfg.NumSMs = 2
				cfg.Sched = config.SchedTwoLevel
				cfg.InvariantStride = 32
				sim := MustNew(cfg)
				buf := sim.Mem.Alloc(4 * 128 * 8)
				return sim, &kernel.Launch{Kernel: loadIncKernel(t), GridDim: 8, Params: []uint32{buf}}
			},
		},
		{
			name: "skip-barrier-arrival", kind: fault.SkipBarrierArrival, seed: 3,
			setup: func(t *testing.T) (*Sim, *kernel.Launch) {
				cfg := config.Default()
				cfg.NumSMs = 2
				cfg.InvariantStride = 32
				sim := MustNew(cfg)
				return sim, &kernel.Launch{Kernel: barrierKernel(t), GridDim: 8}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, l := tc.setup(t)

			// The same workload must pass cleanly without the fault.
			if _, err := sim.Run(l); err != nil {
				t.Fatalf("clean run failed: %v", err)
			}

			sim, l2 := tc.setup(t)
			plan := fault.NewPlan(tc.kind, tc.seed, 4)
			sim.Faults = plan
			_, err := sim.Run(l2)
			if !plan.Injected {
				t.Fatalf("fault %s never found an injection opportunity", tc.kind)
			}
			if err == nil {
				t.Fatalf("injected %s at cycle %d went undetected: run completed cleanly", tc.kind, plan.Cycle)
			}
			se, ok := simerr.As(err)
			if !ok {
				t.Fatalf("error is not a SimError: %v", err)
			}
			if se.Kind != simerr.KindInvariant {
				t.Fatalf("fault %s caught as %s, want invariant: %v", tc.kind, se.Kind, err)
			}
			if se.Dump == nil {
				t.Error("invariant violation carries no forensic dump")
			}
			if se.Cycle < plan.Cycle {
				t.Errorf("violation reported at cycle %d, before the injection at %d", se.Cycle, plan.Cycle)
			}
		})
	}
}

// TestFaultCaughtByWatchdogWithoutInvariants: with auditing off, a
// dropped memory reply still cannot produce a clean result — the wedged
// warp trips the progress watchdog, and the forensic dump names the
// in-flight load it is stuck on.
func TestFaultCaughtByWatchdogWithoutInvariants(t *testing.T) {
	t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0") // auditing must stay off here
	cfg := config.Default()
	cfg.NumSMs = 2
	cfg.InvariantStride = 0
	cfg.ProgressWindow = 3000
	sim := MustNew(cfg)
	buf := sim.Mem.Alloc(4 * 128 * 8)
	l := &kernel.Launch{Kernel: loadIncKernel(t), GridDim: 8, Params: []uint32{buf}}
	plan := fault.NewPlan(fault.DropMemReply, 7, 4)
	sim.Faults = plan

	_, err := sim.Run(l)
	if !plan.Injected {
		t.Fatal("fault never found an injection opportunity")
	}
	if err == nil {
		t.Fatal("dropped reply went undetected: run completed cleanly")
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error is not a SimError: %v", err)
	}
	if se.Kind != simerr.KindWatchdog {
		t.Fatalf("caught as %s, want watchdog: %v", se.Kind, err)
	}
	if se.Dump == nil {
		t.Fatal("watchdog error carries no forensic dump")
	}
	if !strings.Contains(se.Msg, "global load") {
		t.Errorf("watchdog message does not name the stuck load: %q", se.Msg)
	}
}

// TestHangForensicsNameStuckBarrierWarp: a genuinely deadlocking kernel
// (warp 0 waits at a barrier warp 1 never reaches — warp 1 spins on a
// flag that is never set) aborts at MaxCycles with a diagnosis naming
// the parked warp and its barrier stall.
func TestHangForensicsNameStuckBarrierWarp(t *testing.T) {
	b := kernel.NewBuilder("deadlock", 64)
	b.Params(1).SetRegs(8)
	b.Mov(0, isa.Sreg(isa.SrWarpCta))
	b.Setp(isa.CmpNE, 0, isa.Reg(0), isa.Imm(0))
	b.BraIf(0, false, "spin", "end")
	b.Bar() // warp 0 parks here forever
	b.Bra("end")
	b.Label("spin")
	b.LdParam(1, 0)
	b.Label("loop")
	b.LdG(2, isa.Reg(1), 0) // the flag stays 0: warp 1 spins, issuing forever
	b.Setp(isa.CmpEQ, 1, isa.Reg(2), isa.Imm(0))
	b.BraIf(1, false, "loop", "end")
	b.Label("end")
	b.Exit()
	k := b.MustBuild()

	cfg := config.Default()
	cfg.NumSMs = 1
	cfg.MaxCycles = 60_000
	cfg.InvariantStride = 128 // a kernel bug is not an invariant violation
	sim := MustNew(cfg)
	flag := sim.Mem.Alloc(128)
	_, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: 1, Params: []uint32{flag}})
	if err == nil {
		t.Fatal("deadlocked kernel completed")
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error is not a SimError: %v", err)
	}
	if se.Kind != simerr.KindMaxCycles {
		t.Fatalf("kind = %s, want max-cycles: %v", se.Kind, err)
	}
	if !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("error does not mention the cycle limit: %v", err)
	}
	if se.SM != 0 || se.Warp < 0 {
		t.Errorf("error does not pin the stuck warp: SM=%d warp=%d", se.SM, se.Warp)
	}
	if !strings.Contains(se.Msg, "barrier") {
		t.Errorf("message does not name the barrier stall: %q", se.Msg)
	}
	if se.Dump == nil {
		t.Fatal("no forensic dump attached")
	}
	diag := se.Diagnosis()
	if !strings.Contains(diag, "at barrier (1/2 arrived)") {
		t.Errorf("diagnosis does not show the barrier arrival state:\n%s", diag)
	}
}

// TestInvariantAuditIsTransparent: auditing every 64 cycles must not
// change a single statistic or functional result relative to an
// unaudited run.
func TestInvariantAuditIsTransparent(t *testing.T) {
	t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0") // the stride-0 leg must be unaudited
	run := func(stride int64, shared bool) (interface{}, []uint32) {
		cfg := config.Default()
		cfg.NumSMs = 2
		cfg.InvariantStride = stride
		if shared {
			cfg.Sharing = config.ShareRegisters
			cfg.T = 0.1
			cfg.Sched = config.SchedOWF
		}
		sim := MustNew(cfg)
		buf := sim.Mem.Alloc(4 * 128 * 8)
		k := loadIncKernel(t)
		g, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: 8, Params: []uint32{buf}})
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		out := make([]uint32, 16)
		for i := range out {
			out[i] = sim.Mem.Load32(buf + uint32(4*i))
		}
		return g, out
	}
	for _, shared := range []bool{false, true} {
		gOff, memOff := run(0, shared)
		gOn, memOn := run(64, shared)
		if !reflect.DeepEqual(gOff, gOn) {
			t.Errorf("shared=%v: statistics differ between audited and unaudited runs", shared)
		}
		if !reflect.DeepEqual(memOff, memOn) {
			t.Errorf("shared=%v: functional results differ between audited and unaudited runs", shared)
		}
	}
}
