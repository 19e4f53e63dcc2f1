package gpu

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// aluChainKernel is a one-warp dependent ALU chain: each IAdd reads the
// register the previous one writes, so the warp stalls on the
// scoreboard for the full SP pipeline latency between issues, and every
// issue waits on exactly one writeback.
func aluChainKernel(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	b := kernel.NewBuilder("aluchain", 32)
	b.SetRegs(8)
	b.MovI(0, 0)
	for i := 0; i < 64; i++ {
		b.IAdd(0, isa.Reg(0), isa.Imm(1))
	}
	b.Exit()
	return b.MustBuild()
}

// TestStaleCardCaught: the StaleCensus fault skips one census drop at
// the writeback that lands a counted warp's last operand, so its
// scheduler's census keeps counting the warp "scoreboard-blocked" and
// the issue stage replays it instead of asking the warp again. The
// snapshot class's census audit must catch that at the next stride;
// without an audit in the window the lone warp hangs (the watchdog
// fires) — never a clean run with wrong statistics. (The name predates
// the census being the SM's only cache.)
func TestStaleCardCaught(t *testing.T) {
	setup := func(stride int64) (*Sim, *kernel.Launch) {
		cfg := config.Default()
		cfg.NumSMs = 2
		cfg.InvariantStride = stride
		cfg.ProgressWindow = 2000
		sim := MustNew(cfg)
		return sim, &kernel.Launch{Kernel: aluChainKernel(t), GridDim: 2}
	}

	sim, l := setup(8)
	if _, err := sim.Run(l); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	for _, c := range []struct {
		name   string
		stride int64
		want   simerr.Kind
	}{
		{"audited", 8, simerr.KindInvariant},
		{"watchdog", 0, simerr.KindWatchdog},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0") // check.sh audits tier-1 through the env; this leg wants none
			sim, l := setup(c.stride)
			plan := fault.NewPlan(fault.StaleCensus, 13, 4)
			sim.Faults = plan
			_, err := sim.Run(l)
			if !plan.Injected {
				t.Fatal("stale-census fault never found an injection opportunity")
			}
			if err == nil {
				t.Fatalf("stale census injected at cycle %d went undetected: run completed cleanly", plan.Cycle)
			}
			se, ok := simerr.As(err)
			if !ok {
				t.Fatalf("error is not a SimError: %v", err)
			}
			if se.Kind != c.want {
				t.Fatalf("stale census caught as %s, want %s: %v", se.Kind, c.want, err)
			}
			if se.Dump == nil {
				t.Error("violation carries no forensic dump")
			}
			if se.Cycle < plan.Cycle {
				t.Errorf("violation reported at cycle %d, before the injection at %d", se.Cycle, plan.Cycle)
			}
		})
	}
}
