package gpu

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// buildTenants instantiates the spec's workloads on the simulator's
// global memory and returns their launches.
func buildTenants(tb testing.TB, sim *Sim, spec *tenancy.Spec, scale int) []*kernel.Launch {
	tb.Helper()
	launches, _, err := tenantLaunches(sim, spec.Tenants, scale)
	if err != nil {
		tb.Fatal(err)
	}
	return launches
}

// runMulti simulates the spec's tenants on a fresh simulator.
func runMulti(tb testing.TB, cfg config.Config, spec *tenancy.Spec, scale int) *stats.GPU {
	tb.Helper()
	return runMultiCK(tb, cfg, spec, scale, nil, nil)
}

// twoTenantSpec is the canonical two-tenant mix the tests share:
// a compute-lean kernel next to a scratchpad-heavy one.
func twoTenantSpec(policy tenancy.Policy) *tenancy.Spec {
	s := &tenancy.Spec{
		Policy: policy,
		Tenants: []tenancy.TenantSpec{
			{Name: "latency", Workload: "gaussian"},
			{Name: "batch", Workload: "CONV2"},
		},
	}
	if policy == tenancy.TimeSlice {
		s.QuotaCycles = 3000
	}
	return s
}

// TestTenantStatsPopulated: a two-tenant co-scheduled run must produce
// a usable per-tenant breakdown — IPC, completed blocks, and placement
// footprint — so interference is measurable per tenant.
func TestTenantStatsPopulated(t *testing.T) {
	cfg := config.Default()
	spec := twoTenantSpec(tenancy.CoSched)
	sim := MustNew(cfg)
	launches := buildTenants(t, sim, spec, 1)
	g, err := sim.RunMulti(spec, launches)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Tenants) != 2 {
		t.Fatalf("got %d tenant entries, want 2", len(g.Tenants))
	}
	for i := range g.Tenants {
		ten := &g.Tenants[i]
		if ten.Name != spec.TenantName(i) || ten.Workload != spec.Tenants[i].Workload {
			t.Errorf("tenant %d labeled %q/%q, want %q/%q", i, ten.Name, ten.Workload,
				spec.TenantName(i), spec.Tenants[i].Workload)
		}
		if ten.IPC() <= 0 {
			t.Errorf("tenant %d (%s): IPC = %v, want > 0", i, ten.Name, ten.IPC())
		}
		if ten.Cycles <= 0 || ten.Cycles > g.Cycles {
			t.Errorf("tenant %d: makespan %d outside (0, %d]", i, ten.Cycles, g.Cycles)
		}
		if got, want := int(ten.BlocksCompleted), launches[i].Blocks(); got != want {
			t.Errorf("tenant %d completed %d blocks, grid has %d", i, got, want)
		}
		if ten.ResidentSlots <= 0 || ten.SMs <= 0 || ten.MaxResidentTB <= 0 {
			t.Errorf("tenant %d: empty placement footprint: slots=%d SMs=%d peakTB=%d",
				i, ten.ResidentSlots, ten.SMs, ten.MaxResidentTB)
		}
	}
	// Per-tenant issue counters must decompose the machine totals.
	var warpSum int64
	for i := range g.Tenants {
		warpSum += g.Tenants[i].WarpInstrs
	}
	if warpSum != g.TotalWarpInstrs() {
		t.Errorf("per-tenant warp instructions sum to %d, machine total is %d", warpSum, g.TotalWarpInstrs())
	}
}

// TestSpatialTenantsDisjoint: under spatial partitioning the hosting
// SM sets must partition the machine — together they cover every SM and
// they never overlap (their sizes sum to NumSMs).
func TestSpatialTenantsDisjoint(t *testing.T) {
	cfg := config.Default()
	g := runMulti(t, cfg, twoTenantSpec(tenancy.Spatial), 1)
	smSum := 0
	for i := range g.Tenants {
		if g.Tenants[i].SMs <= 0 {
			t.Fatalf("tenant %d hosted on no SMs", i)
		}
		smSum += g.Tenants[i].SMs
	}
	if smSum != cfg.NumSMs {
		t.Errorf("tenant SM counts sum to %d, want %d (disjoint cover)", smSum, cfg.NumSMs)
	}
}

// TestRunMultiRejects covers the structural guards of the multi-tenant
// entry point.
func TestRunMultiRejects(t *testing.T) {
	cfg := config.Default()
	sim := MustNew(cfg)
	spec := twoTenantSpec(tenancy.CoSched)
	launches := buildTenants(t, sim, spec, 1)

	if _, err := sim.RunMulti(nil, launches); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := sim.RunMulti(spec, launches[:1]); err == nil {
		t.Error("launch/tenant count mismatch accepted")
	}
	ts := *spec
	ts.Policy = tenancy.TimeSlice // QuotaCycles left 0
	if _, err := sim.RunMulti(&ts, launches); err == nil {
		t.Error("timeslice without quota accepted")
	}
	dynCfg := config.Default()
	dynCfg.DynWarp = true
	dynSim := MustNew(dynCfg)
	if _, err := dynSim.RunMulti(spec, launches); err == nil {
		t.Error("DynWarp multi-tenant run accepted")
	}
}

// TestPackingStrategiesProduceComparison: the three bin-packing
// strategies must all run the same tenant mix to completion and report
// per-tenant stats — the packing-comparison experiment's data row.
func TestPackingStrategiesProduceComparison(t *testing.T) {
	for _, strat := range []tenancy.Packing{tenancy.FirstFit, tenancy.BestFit, tenancy.WorstFit} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := config.Default()
			spec := twoTenantSpec(tenancy.CoSched)
			spec.Packing = strat
			g := runMulti(t, cfg, spec, 1)
			if g.Cycles <= 0 || len(g.Tenants) != 2 {
				t.Fatalf("%s: no usable result (cycles=%d tenants=%d)", strat, g.Cycles, len(g.Tenants))
			}
			for i := range g.Tenants {
				if g.Tenants[i].IPC() <= 0 {
					t.Errorf("%s: tenant %d IPC = 0", strat, i)
				}
			}
		})
	}
}

// BenchmarkCoResident measures end-to-end wall-clock for a two-tenant
// co-scheduled run (tools/bench.sh compares it against
// BENCH_baseline.json).
func BenchmarkCoResident(b *testing.B) {
	cfg := config.Default()
	spec := twoTenantSpec(tenancy.CoSched)
	op := func() {
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		launches := make([]*kernel.Launch, len(spec.Tenants))
		for ti, ts := range spec.Tenants {
			ws, err := workloads.ByName(ts.Workload)
			if err != nil {
				b.Fatal(err)
			}
			inst := ws.Build(1)
			inst.Setup(sim.Mem)
			launches[ti] = inst.Launch
		}
		if _, err := sim.RunMulti(spec, launches); err != nil {
			b.Fatal(err)
		}
	}
	op() // untimed: each timed op builds on spares (see BenchmarkComputeBound)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
