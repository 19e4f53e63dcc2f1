package gpu

import (
	"strings"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// modeDeterminism is the body of the single-workload determinism
// tests: run simulates the workload under cfg, optionally writing
// checkpoints into sink or resuming from restore. Every leg — both
// modes, GPUSHARE_REFERENCE, and resuming from a mid-run checkpoint in
// both modes — must produce statistics byte-identical to the reference
// run. Leg names: see legacyLegs.
func modeDeterminism(t *testing.T, run func(t *testing.T, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU) {
	ref := run(t, reference(config.Default()), nil, nil)
	refJSON := encodeJSON(t, ref)

	legs := legacyLegs("workers=1", "workers=gomaxprocs", "workers=2 ff=off", "workers=1 nosnapshot")
	restoreModes := engineModes
	if testing.Short() {
		// -short keeps two optimised legs and one restore, and leaves
		// the repeat and the reference legs to the full run.
		legs, restoreModes = legs[1:3], restoreModes[:1]
	}
	for _, m := range legs {
		t.Run(m.name, func(t *testing.T) {
			if j := encodeJSON(t, run(t, m.apply(config.Default()), nil, nil)); j != refJSON {
				t.Error("stats diverge from the reference")
			}
		})
	}

	// GPUSHARE_REFERENCE must behave exactly like Config.Reference: the
	// simulator reports the mode it runs in, and the bytes match.
	t.Run("env-escape-hatch", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full-mode only: one extra reference run")
		}
		t.Setenv("GPUSHARE_REFERENCE", "1")
		if sim := MustNew(config.Default()); !sim.Cfg.Reference {
			t.Error("GPUSHARE_REFERENCE=1 did not select reference mode")
		}
		if j := encodeJSON(t, run(t, config.Default(), nil, nil)); j != refJSON {
			t.Error("GPUSHARE_REFERENCE=1 run diverges from the Config.Reference run")
		}
	})

	// Checkpoints taken by the optimised engine restore exactly: the
	// snapshot carries no issue cards or censuses, so the
	// restored run re-derives them and must still land on the reference
	// bytes.
	t.Run("restore", func(t *testing.T) {
		ckCfg := config.Default()
		ckCfg.CheckpointStride = max(ref.Cycles/4, 1)
		sink := checkpoint.NewMemSink()
		if j := encodeJSON(t, run(t, ckCfg, sink, nil)); j != refJSON {
			t.Fatal("enabling checkpoints changed the statistics")
		}
		cycles := sink.List()
		if len(cycles) == 0 {
			t.Fatalf("no checkpoints taken in %d cycles", ref.Cycles)
		}
		mid := cycles[len(cycles)/2]
		for _, m := range restoreModes {
			if j := encodeJSON(t, run(t, m.apply(config.Default()), nil, sink.Get(mid))); j != refJSON {
				t.Errorf("restore at cycle %d under %s diverges from straight-through", mid, m.name)
			}
		}
	})
}

// TestMemSleepDeterminism pins the engine-mode contract on a
// memory-bound workload: MUM's divergent pointer chasing keeps
// requests, DRAM commands and replies in flight constantly, interleaved
// with idle DRAM spans (per-partition busy/peak counters are part of
// the compared bytes), and keeps most warps blocked, so the SMs run on
// issue cards and censuses.
func TestMemSleepDeterminism(t *testing.T) {
	modeDeterminism(t, func(t *testing.T, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU {
		return runWorkloadCK(t, "MUM", cfg, 1, sink, restore)
	})
}

// TestMemSleepTenancyDeterminism extends the contract to all three
// tenancy policies: for each, the optimised engine must match the
// reference byte-for-byte. The time-slice leg additionally covers a
// memory system that persists across per-slice SM rebuilds.
func TestMemSleepTenancyDeterminism(t *testing.T) {
	for _, policy := range []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Sharing, cfg.T = config.ShareScratchpad, 0.1
			want := encodeJSON(t, runMulti(t, reference(cfg), twoTenantSpec(policy), 1))
			if got := encodeJSON(t, runMulti(t, cfg, twoTenantSpec(policy), 1)); got != want {
				t.Error("optimised stats diverge from the reference")
			}
		})
	}
}

// TestDRAMQueueOrderFaultCaught: the DRAMQueueOrder fault makes the two
// newest requests of one DRAM queue trade places, behind Enqueue's back,
// so the queue is no longer arrival-ordered and the scheduler's early
// exits would skip an arrived request. The dram-order class walks every
// queue at every audit and must name the breach — in reference mode too,
// where the scheduler is the same one.
func TestDRAMQueueOrderFaultCaught(t *testing.T) {
	for _, ref := range []bool{false, true} {
		cfg := config.Default()
		cfg.NumSMs = 4
		cfg.Reference = ref
		cfg.InvariantStride = 8 // a request spends 160 cycles in the queue before it can leave
		sim := MustNew(cfg)
		const n = 128 * 56
		a, b, out := sim.Mem.Alloc(4*n), sim.Mem.Alloc(4*n), sim.Mem.Alloc(4*n)
		plan := fault.NewPlan(fault.DRAMQueueOrder, 13, 4)
		sim.Faults = plan
		_, err := sim.Run(&kernel.Launch{Kernel: vecAddKernel(t), GridDim: n / 128, Params: []uint32{a, b, out}})
		if !plan.Injected {
			t.Fatal("dram-queue-order fault never found an injection opportunity")
		}
		se, ok := simerr.As(err)
		if !ok || se.Kind != simerr.KindInvariant || se.Dump == nil {
			t.Fatalf("reference=%v: swap injected at cycle %d ended as %v, want an invariant violation with a dump", ref, plan.Cycle, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "dram-order") || !strings.Contains(msg, "DRAM queue out of arrival order") {
			t.Errorf("reference=%v: violation does not name the broken contract: %v", ref, err)
		}
		if se.Cycle < plan.Cycle || se.Cycle > plan.Cycle+cfg.InvariantStride {
			t.Errorf("reference=%v: injected at cycle %d, reported at %d: want the next audit", ref, plan.Cycle, se.Cycle)
		}
	}
}
