package gpu

import (
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
	"gpushare/internal/tenancy"
)

// TestMemSleepDeterminism pins the event-driven memory tick's
// correctness contract on a memory-bound workload: MUM's divergent
// pointer chasing keeps requests, DRAM commands, and replies in flight
// constantly, interleaved with idle memory spans the event-driven tick
// skips. Every mem-sleep-on engine variant — fast-forward and snapshot
// modes, the env escape hatch, and resuming from a mid-run checkpoint —
// must produce statistics (per-partition busy/peak counters included)
// byte-identical to the straight-through reference.
func TestMemSleepDeterminism(t *testing.T) {
	refCfg := config.Default()
	refCfg.NoMemSleep = true
	ref := runWorkload(t, "MUM", refCfg, 1)
	refJSON := encodeJSON(t, ref)

	variants := sleepVariants
	if testing.Short() {
		// -short keeps one fast-forward-on and one fast-forward-off leg
		// and leaves the other permutations to the full run.
		variants = variants[1:3]
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if j := encodeJSON(t, runWorkload(t, "MUM", v.cfg(), 1)); j != refJSON {
				t.Error("mem-sleep-on stats diverge from the straight-through reference")
			}
		})
	}

	// GPUSHARE_NOMEMSLEEP must behave exactly like Config.NoMemSleep.
	t.Run("env-escape-hatch", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full-mode only: one extra straight-through run")
		}
		t.Setenv("GPUSHARE_NOMEMSLEEP", "1")
		cfg := config.Default()
		if j := encodeJSON(t, runWorkload(t, "MUM", cfg, 1)); j != refJSON {
			t.Error("GPUSHARE_NOMEMSLEEP=1 run diverges from Config.NoMemSleep reference")
		}
	})

	// Checkpoints taken by an event-driven memory system restore
	// exactly: the snapshot carries no horizon memos, so the restored
	// run re-derives them and must still land on the reference bytes.
	t.Run("restore", func(t *testing.T) {
		stride := ref.Cycles / 4
		if stride < 1 {
			stride = 1
		}
		ckCfg := config.Default()
		ckCfg.CheckpointStride = stride
		sink := checkpoint.NewMemSink()
		if j := encodeJSON(t, runWorkloadCK(t, "MUM", ckCfg, 1, sink, nil)); j != refJSON {
			t.Fatal("enabling checkpoints changed the statistics")
		}
		cycles := sink.List()
		if len(cycles) == 0 {
			t.Fatalf("no checkpoints taken in %d cycles at stride %d", ref.Cycles, stride)
		}
		mid := cycles[len(cycles)/2]
		restoreVariants := variants
		if testing.Short() {
			restoreVariants = variants[:1]
		}
		for _, v := range restoreVariants {
			if j := encodeJSON(t, runWorkloadCK(t, "MUM", v.cfg(), 1, nil, sink.Get(mid))); j != refJSON {
				t.Errorf("restore at cycle %d under %s diverges from straight-through", mid, v.name)
			}
		}
	})
}

// TestMemSleepTenancyDeterminism extends the mem-sleep contract to all
// three tenancy policies: for each, the event-driven memory tick must
// match the straight-through reference byte-for-byte. The time-slice
// leg additionally covers a memory system that persists across
// per-slice engine rebuilds.
func TestMemSleepTenancyDeterminism(t *testing.T) {
	for _, policy := range []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice} {
		t.Run(policy.String(), func(t *testing.T) {
			baseCfg := func() config.Config {
				cfg := config.Default()
				cfg.Sharing, cfg.T = config.ShareScratchpad, 0.1
				return cfg
			}
			refCfg := baseCfg()
			refCfg.NoMemSleep = true
			refJSON := encodeJSON(t, runMulti(t, refCfg, twoTenantSpec(policy), 1))
			if j := encodeJSON(t, runMulti(t, baseCfg(), twoTenantSpec(policy), 1)); j != refJSON {
				t.Error("mem-sleep-on stats diverge from straight-through")
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

// BenchmarkComputeBound is the regime the event-driven memory tick
// targets end to end: a single ALU-bound block keeps SM0 issuing every
// cycle (so the machine-global fast-forward never arms and every cycle
// runs the full loop body) while the memory system sits drained. With
// the straight-through tick every one of those cycles walks all
// partitions for nothing; event-driven, the walk is one memoized
// comparison. tools/bench.sh gates its ns/op against
// BENCH_baseline.json; compare against a GPUSHARE_NOMEMSLEEP=1 run for
// the mem-sleep speedup itself.
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
