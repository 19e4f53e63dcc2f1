package gpu

import (
	"runtime"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/workloads"
)

// TestAllocationBudget is the in-repo twin of the benchmark's
// gpu.mallocs_per_kcycle: heap allocations per thousand simulated
// cycles of Sim.Run, on one scratchpad-heavy proxy under scratchpad
// sharing and one global-memory proxy, unshared and under register
// sharing. The issue path is meant to be allocation-free, so what
// remains is per-run set-up, block launches and buffers growing to
// their steady-state size (190, 26 and 47 when the budgets were last
// set; lavaMD is the highest because its run is short; nearly three
// quarters of MUM's are building the SMs' warps and the L1 and L2 MSHR
// tables' recycled waiter arrays growing, and its writeback arenas
// grow in about 100). A map or slice built per issued instruction
// lands far above them — the per-instruction bank-conflict map put
// these two at 76 000 and 3 300 — and microbenchmarks whose kernels
// lack the offending opcode cannot see it.
func TestAllocationBudget(t *testing.T) {
	// The invariant audits build maps; the budget is for the cycle path,
	// so pin auditing off even under check.sh's audited tier-1 leg.
	t.Setenv("GPUSHARE_INVARIANT_STRIDE", "0")
	for _, tc := range []struct {
		name, workload string
		budget         float64 // mallocs per 1000 cycles, at most ≈2× the measured value
		cfg            func(*config.Config)
	}{
		{"lavaMD", "lavaMD", 400, func(c *config.Config) {
			c.Sharing, c.T, c.Sched = config.ShareScratchpad, 0.1, config.SchedOWF
		}},
		{"MUM", "MUM", 55, func(*config.Config) {}},
		// MUM again under the paper's best register-sharing configuration:
		// most of its cycles are census replays over MSHR-full and
		// lock-waiting warps, which must stay as allocation-free as the
		// walk they replace.
		{"MUM-shared-owf-unroll-dyn", "MUM", 95, func(c *config.Config) { *c = regSharingDyn() }},
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
