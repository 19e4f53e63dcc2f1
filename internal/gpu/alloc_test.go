package gpu

import (
	"runtime"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/mem"
	"gpushare/internal/workloads"
)

// TestAllocationBudget is the in-repo twin of the benchmark's
// gpu.mallocs_per_kcycle: heap allocations per thousand simulated
// cycles of Sim.Run, on one scratchpad-heavy proxy under scratchpad
// sharing and one global-memory proxy, unshared and under register
// sharing, and two of them again on the reference engine. The issue path
// is meant to be allocation-free in either engine, so what remains is
// per-run set-up, block launches and buffers growing to their
// steady-state size (89, 8 and 14 on machines built from nothing when
// the budgets were last set, 5 for MUM on the reference engine; lavaMD
// is the highest because its run is short; the MSHR tables' waiters
// grow one arena per table, and an SM's per-warp and per-scheduler
// tables are sized once when it is built, or not at all when it is a
// spare). A map or slice built per issued instruction lands far above
// them — the per-instruction bank-conflict map put these two at 76 000
// and 3 300, a fresh ranking cursor per reference-engine cycle MUM at
// 26 498 — and microbenchmarks whose kernels lack the offending opcode
// cannot see it.
func TestAllocationBudget(t *testing.T) {
	// The invariant audits build maps; the budget is for the cycle path,
	// so pin auditing off even under check.sh's audited tier-1 leg.
	t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0")
	for _, tc := range []struct {
		name, workload string
		budget         float64 // mallocs per 1000 cycles, at most ≈2× the measured value
		cfg            func(*config.Config)
	}{
		{"lavaMD", "lavaMD", 180, func(c *config.Config) {
			c.Sharing, c.T, c.Sched = config.ShareScratchpad, 0.1, config.SchedOWF
		}},
		{"MUM", "MUM", 16, func(*config.Config) {}},
		// MUM again under the paper's best register-sharing configuration:
		// most of its cycles are answered by the census over MSHR-full and
		// lock-waiting warps, which must stay as allocation-free as the
		// asks it replaces.
		{"MUM-shared-owf-unroll-dyn", "MUM", 28, func(c *config.Config) { *c = regSharingDyn() }},
		// The reference engine ranks every warp every cycle through each
		// policy's Order (LRR here, OWF below), which must reuse its walk
		// and scratch as the optimised ranking does.
		{"MUM-reference", "MUM", 16, func(c *config.Config) { c.Reference = true }},
		{"lavaMD-reference", "lavaMD", 180, func(c *config.Config) {
			c.Sharing, c.T, c.Sched, c.Reference = config.ShareScratchpad, 0.1, config.SchedOWF, true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			tc.cfg(&cfg)
			spec, err := workloads.ByName(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inst := spec.Build(1)
			inst.Setup(sim.Mem)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := sim.Run(inst.Launch)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perK := float64(after.Mallocs-before.Mallocs) / (float64(g.Cycles) / 1e3)
			t.Logf("%s: %d mallocs over %d cycles = %.0f per kcycle (budget %.0f)",
				tc.name, after.Mallocs-before.Mallocs, g.Cycles, perK, tc.budget)
			if perK > tc.budget {
				t.Errorf("%s allocates %.0f times per 1000 simulated cycles, budget %.0f: something on the cycle path allocates per instruction or per cycle",
					tc.name, perK, tc.budget)
			}
		})
	}
}

// TestCheckpointAllocationBudget bounds what checkpointing adds to a
// run's heap allocation, on MUM (scale 1, default configuration): a run
// checkpointed every 20 000 cycles may allocate at most 7 MB more than
// the plain run — its capture buffer, sized once to the first container
// plus headroom (4.2 MB for containers of 3.4–3.8 MB), and the views —
// and a run restored from its cycle-100 000 snapshot at most 3 MB more
// — the decoded pages and memory-system state; the register files
// decode into the machine's own. They were +18.9 and +7.9 MB when the
// capture buffer grew by doubling and the register files decoded into
// fresh slices, and +5.1 and +2.0 MB when the budgets were set.
func TestCheckpointAllocationBudget(t *testing.T) {
	t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0")
	blob := mumSnapshot(t, 100_000)
	measure := func(name string, arm func(*Sim)) uint64 {
		sim, l := mumSim(t)
		arm(sim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := sim.Run(l)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := measure("plain", func(*Sim) {})
	sink := &discardSink{}
	ck := measure("checkpointed", func(s *Sim) { s.Cfg.CheckpointStride, s.CheckpointSink = 20_000, sink })
	restored := measure("restored", func(s *Sim) { s.RestoreFrom = blob })
	mb := func(n uint64) float64 { return float64(n) / 1e6 }
	t.Logf("plain %.1f MB, checkpointed (%d captures) %.1f MB (+%.1f), restored %.1f MB (+%.1f)",
		mb(plain), sink.puts, mb(ck), mb(ck)-mb(plain), mb(restored), mb(restored)-mb(plain))
	if sink.puts == 0 {
		t.Fatal("the checkpointed run captured nothing")
	}
	if ck > plain+7e6 {
		t.Errorf("the checkpointed run allocates %.1f MB more than the plain run, budget 7 MB", mb(ck)-mb(plain))
	}
	if restored > plain+3e6 {
		t.Errorf("the restored run allocates %.1f MB more than the plain run, budget 3 MB", mb(restored)-mb(plain))
	}
}

// TestRecycledRunAllocationBudget bounds what a run allocates when the
// SMs it builds are spares: MUM (scale 1, default configuration) in a
// new simulator, right after one MUM run in another, may allocate at
// most 0.6 MB outside the pages of global memory its stores
// materialize: its programs, sharing managers, schedulers and
// statistics (0.26 MB when the budget was set). When every run built its
// SMs from nothing, this one allocated 2.91 MB besides its pages.
func TestRecycledRunAllocationBudget(t *testing.T) {
	t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0")
	first, l := mumSim(t)
	if _, err := first.Run(l); err != nil {
		t.Fatal(err)
	}
	sim, l := mumSim(t)
	unstored := sim.Mem.Unstored()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := sim.Run(l)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	pages := uint64(unstored-sim.Mem.Unstored()) * mem.PageSize
	n := after.TotalAlloc - before.TotalAlloc - pages
	t.Logf("second MUM run: %.2f MB, %.2f MB of it pages its stores materialized", float64(n+pages)/1e6, float64(pages)/1e6)
	if n > 0.6e6 {
		t.Errorf("a MUM run on recycled SMs allocates %.2f MB besides its pages, budget 0.6 MB", float64(n)/1e6)
	}
}
