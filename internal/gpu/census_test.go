package gpu

import (
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
	"gpushare/internal/tenancy"
)

// regSharingDyn is the paper's best register-sharing configuration
// (Shared-OWF-Unroll-Dyn): pair locks, ownership transfers and the
// RNG-consuming dyn gate all in one run.
func regSharingDyn() config.Config {
	cfg := config.Default()
	cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
	cfg.Sched = config.SchedOWF
	cfg.UnrollRegs, cfg.DynWarp = true, true
	return cfg
}

// scratchSharing is Shared-OWF with scratchpad sharing: the
// address-dependent Fig. 4 lock waits that are never cached.
func scratchSharing() config.Config {
	cfg := config.Default()
	cfg.Sharing, cfg.T = config.ShareScratchpad, 0.1
	cfg.Sched = config.SchedOWF
	return cfg
}

// twoLevel is the unshared baseline of Figs. 11/12: the one policy that
// ranks on whether a warp waits on a global load, an input no warp
// view caches (the SM's waitingLong is read live at each ranking).
func twoLevel() config.Config {
	cfg := config.Default()
	cfg.Sched = config.SchedTwoLevel
	return cfg
}

// earlyRelease is Shared-OWF-Unroll with the §VIII early register
// release: the one tenant kind whose every issue re-snapshots the warp,
// and whose snapshot has a side effect (ReleaseReg).
func earlyRelease() config.Config {
	cfg := config.Default()
	cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
	cfg.Sched = config.SchedOWF
	cfg.UnrollRegs, cfg.EarlyRegRelease = true, true
	return cfg
}

// TestCensusExact: issue cards and the census replace the blocked-warp
// path outright, so Config.Reference — which asks every warp every
// cycle — is the oracle. Each case runs with the card/census
// audit on every cycle and must land on the reference bytes: MSHR-full
// stalls (MUM), register-lock waits under the dyn gate (LIB),
// scratchpad-lock waits (lavaMD), two tenants' classes in one census
// (cosched), and a census re-derived from nothing after a restore. The
// two-level cases check that an issue or a load completion, which drop
// only the warp's card, leave nothing stale under the policy that ranks
// on load state: a quick kernel with global loads (gaussian) and a
// latency-bound one (MUM). The early-release case (the epilogue
// microbenchmark) checks that the release still fires at the
// scheduler's next refresh, as on the reference, and that it fires.
func TestCensusExact(t *testing.T) {
	audited := func(cfg config.Config) config.Config {
		cfg.InvariantStride = 1
		return cfg
	}
	for _, c := range []struct {
		name, workload string
		slow           bool // minutes under -race at stride 1
		cfg            func() config.Config
	}{
		{"MUM/unshared-lrr", "MUM", true, config.Default},
		{"LIB/shared-owf-unroll-dyn", "LIB", true, regSharingDyn},
		{"lavaMD/shared-owf-scratchpad", "lavaMD", false, scratchSharing},
		{"two-level/gaussian", "gaussian", false, twoLevel},
		{"two-level/MUM", "MUM", true, twoLevel},
		{"epilogue/shared-owf-unroll-early-release", "epilogue", false, earlyRelease},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("simulation-heavy at stride 1")
			}
			cfg := c.cfg()
			ref := runWorkload(t, c.workload, reference(cfg), 1)
			if got := encodeJSON(t, runWorkload(t, c.workload, audited(cfg), 1)); got != encodeJSON(t, ref) {
				t.Error("card/census run diverges from the reference")
			}
			if cfg.EarlyRegRelease {
				var rel int64
				for i := range ref.SMs {
					rel += ref.SMs[i].EarlyRegRelease
				}
				if rel == 0 {
					t.Error("no early release fired: the leg does not exercise the release")
				}
			}
		})
	}

	t.Run("hotspot+lavaMD/cosched", func(t *testing.T) {
		if testing.Short() {
			t.Skip("simulation-heavy at stride 1")
		}
		spec := &tenancy.Spec{Policy: tenancy.CoSched,
			Tenants: []tenancy.TenantSpec{{Workload: "hotspot"}, {Workload: "lavaMD"}}}
		want := encodeJSON(t, runMulti(t, reference(config.Default()), spec, 1))
		if got := encodeJSON(t, runMulti(t, audited(config.Default()), spec, 1)); got != want {
			t.Error("two-tenant card/census run diverges from the reference")
		}
	})

	t.Run("restore", func(t *testing.T) {
		if testing.Short() {
			t.Skip("simulation-heavy at stride 1")
		}
		// The audit stride is part of the configuration a checkpoint is
		// bound to, so every leg here audits; reference mode still turns
		// the cards (and their audit) off.
		cfg := audited(regSharingDyn())
		ref := runWorkload(t, "b+tree", reference(cfg), 1)
		want := encodeJSON(t, ref)
		ckCfg := cfg
		ckCfg.CheckpointStride = ref.Cycles / 3
		sink := checkpoint.NewMemSink()
		if got := encodeJSON(t, runWorkloadCK(t, "b+tree", ckCfg, 1, sink, nil)); got != want {
			t.Fatal("checkpointing card/census run diverges from the reference")
		}
		cycles := sink.List()
		if len(cycles) == 0 {
			t.Fatalf("no checkpoints taken in %d cycles", ref.Cycles)
		}
		mid := sink.Get(cycles[len(cycles)/2])
		if got := encodeJSON(t, runWorkloadCK(t, "b+tree", cfg, 1, nil, mid)); got != want {
			t.Error("card/census run restored mid-way diverges from the reference")
		}
		if got := encodeJSON(t, runWorkloadCK(t, "b+tree", reference(cfg), 1, nil, mid)); got != want {
			t.Error("reference run restored from a card/census checkpoint diverges")
		}
	})
}

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

// TestStaleCardCaught: the StaleCard fault skips one card invalidation
// at the writeback that lands a warp's last operand, so the warp's card
// keeps saying "scoreboard-blocked" and the issue stage never asks it
// again. The snapshot class's card audit must catch that at the next
// stride; without an audit in the window the warp either hangs (the
// watchdog fires) — never a clean run with wrong statistics.
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
			plan := fault.NewPlan(fault.StaleCard, 13, 4)
			sim.Faults = plan
			_, err := sim.Run(l)
			if !plan.Injected {
				t.Fatal("stale-card fault never found an injection opportunity")
			}
			if err == nil {
				t.Fatalf("stale card injected at cycle %d went undetected: run completed cleanly", plan.Cycle)
			}
			se, ok := simerr.As(err)
			if !ok {
				t.Fatalf("error is not a SimError: %v", err)
			}
			if se.Kind != c.want {
				t.Fatalf("stale card caught as %s, want %s: %v", se.Kind, c.want, err)
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
