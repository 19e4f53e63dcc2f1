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
	// snapshot carries no horizon memos, cards or censuses, so the
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
// with idle memory spans the event-driven tick skips (per-partition
// busy/peak counters are part of the compared bytes), and keeps most
// warps blocked, so the SMs run on issue cards and censuses.
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

// TestMemSleepMissedWakeCaught: the MissedMemWake fault pushes one
// partition's refreshed next-work cycle past its true horizon, so the
// event-driven tick skips cycles where the partition had live work (a
// deliverable request, a schedulable DRAM command, or a maturing L2
// hit). The mem-idle invariant class — which recomputes every horizon
// from scratch and demands exact equality with the memo — must catch it
// and never let the run finish wrong-but-clean.
func TestMemSleepMissedWakeCaught(t *testing.T) {
	setup := func() (*Sim, *kernel.Launch) {
		cfg := config.Default()
		cfg.NumSMs = 4
		cfg.InvariantStride = 8 // well under missedMemWakeSlack: the audit lands inside the corrupted window
		sim := MustNew(cfg)
		buf := sim.Mem.Alloc(64 * 1024)
		return sim, &kernel.Launch{Kernel: memBoundKernel(t), GridDim: 4, Params: []uint32{buf}}
	}

	// The same workload must pass cleanly — with the event-driven tick
	// armed and the mem-idle class audited — without the fault.
	sim, l := setup()
	if _, err := sim.Run(l); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	sim, l = setup()
	plan := fault.NewPlan(fault.MissedMemWake, 13, 4)
	sim.Faults = plan
	_, err := sim.Run(l)
	if !plan.Injected {
		t.Fatal("missed-mem-wake fault never found an injection opportunity")
	}
	if err == nil {
		t.Fatalf("missed mem wake injected at cycle %d went undetected: run completed cleanly", plan.Cycle)
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error is not a SimError: %v", err)
	}
	if se.Kind != simerr.KindInvariant {
		t.Fatalf("missed mem wake caught as %s, want invariant: %v", se.Kind, err)
	}
	if se.Dump == nil {
		t.Error("invariant violation carries no forensic dump")
	}
	if se.Cycle < plan.Cycle {
		t.Errorf("violation reported at cycle %d, before the injection at %d", se.Cycle, plan.Cycle)
	}
}

// TestDRAMQueueOrderFaultCaught: the DRAMQueueOrder fault makes the two
// newest requests of one DRAM queue trade places, behind Enqueue's back,
// so the queue is no longer arrival-ordered and the scheduler's early
// exits would skip an arrived request. The mem-idle class walks every
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
		if msg := err.Error(); !strings.Contains(msg, "mem-idle") || !strings.Contains(msg, "DRAM queue out of arrival order") {
			t.Errorf("reference=%v: violation does not name the broken contract: %v", ref, err)
		}
		if se.Cycle < plan.Cycle || se.Cycle > plan.Cycle+cfg.InvariantStride {
			t.Errorf("reference=%v: injected at cycle %d, reported at %d: want the next audit", ref, plan.Cycle, se.Cycle)
		}
	}
}

// BenchmarkComputeBound is the regime the event-driven memory tick
// targets end to end: a single ALU-bound block keeps SM0 issuing every
// cycle while the memory system sits drained. With the
// straight-through tick every one of those cycles walks all partitions
// for nothing; event-driven, the walk is one memoized comparison.
// tools/bench.sh gates its ns/op against BENCH_baseline.json.
func BenchmarkComputeBound(b *testing.B) {
	cfg := config.Default()
	k := memBoundKernel(b) // grid of 1: only the ALU path runs
	run := func() {
		sim := MustNew(cfg)
		buf := sim.Mem.Alloc(64 * 1024)
		if _, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: 1, Params: []uint32{buf}}); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed run first: lazy process-wide state (pools, tables)
	// otherwise lands in the first iteration and makes allocs/op depend
	// on b.N, which the allocation gate cannot tolerate.
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
