package gpu

import (
	"reflect"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
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

// TestTenancyDeterminism extends the engine-determinism contract to all
// three tenancy policies: for a fixed (config, spec, launches), the
// statistics — per-tenant breakdowns included — must be deep-equal and
// byte-identical in both engine modes.
func TestTenancyDeterminism(t *testing.T) {
	legs := legacyLegs(
		"workers=gomaxprocs", "workers=2",
		"workers=1 nosnapshot", "workers=2 nosnapshot",
		"workers=1 nosleep", "workers=2 nosleep")
	for _, policy := range []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice} {
		t.Run(policy.String(), func(t *testing.T) {
			baseCfg := config.Default()
			baseCfg.Sharing, baseCfg.T = config.ShareScratchpad, 0.1
			ref := runMulti(t, reference(baseCfg), twoTenantSpec(policy), 1)
			refJSON := encodeJSON(t, ref)
			if len(ref.Tenants) != 2 {
				t.Fatalf("run carries %d tenant entries, want 2", len(ref.Tenants))
			}
			for _, m := range legs {
				t.Run(m.name, func(t *testing.T) {
					g := runMulti(t, m.apply(baseCfg), twoTenantSpec(policy), 1)
					if !reflect.DeepEqual(ref, g) {
						t.Errorf("stats diverge from reference:\n--- reference\n%s--- variant\n%s",
							ref.Report(), g.Report())
					}
					if encodeJSON(t, g) != refJSON {
						t.Error("canonical JSON encoding differs from reference")
					}
				})
			}

			// Checkpoint/restore under every tenancy policy. For
			// timeslice, stride 1024 against the 3000-cycle quota
			// guarantees snapshots strictly inside a quantum (and inside
			// drain phases), the context-switch states that are hardest
			// to resume. Every restored run must also keep its
			// per-tenant counters exactly decomposing machine totals.
			t.Run("restore", func(t *testing.T) {
				stride := max(ref.Cycles/4, 1)
				if policy == tenancy.TimeSlice {
					stride = 1024
				}
				ckCfg := baseCfg
				ckCfg.CheckpointStride = stride
				sink := checkpoint.NewMemSink()
				if j := encodeJSON(t, runMultiCK(t, ckCfg, twoTenantSpec(policy), 1, sink, nil)); j != refJSON {
					t.Fatal("enabling checkpoints changed the statistics")
				}
				cycles := sink.List()
				if len(cycles) == 0 {
					t.Fatalf("no checkpoints taken in %d cycles at stride %d", ref.Cycles, stride)
				}
				for _, cy := range sampleCycles(cycles, 6) {
					g := runMultiCK(t, baseCfg, twoTenantSpec(policy), 1, nil, sink.Get(cy))
					if j := encodeJSON(t, g); j != refJSON {
						t.Errorf("restore at cycle %d diverges from straight-through", cy)
					}
					var warpSum int64
					for i := range g.Tenants {
						warpSum += g.Tenants[i].WarpInstrs
					}
					if warpSum != g.TotalWarpInstrs() {
						t.Errorf("restore at cycle %d: per-tenant warp instructions sum to %d, machine total is %d",
							cy, warpSum, g.TotalWarpInstrs())
					}
				}
				mid := cycles[len(cycles)/2]
				for _, m := range engineModes {
					if j := encodeJSON(t, runMultiCK(t, m.apply(baseCfg), twoTenantSpec(policy), 1, nil, sink.Get(mid))); j != refJSON {
						t.Errorf("restore at cycle %d under %s diverges from straight-through", mid, m.name)
					}
				}
			})
		})
	}
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

// TestTenantCapFaultCaught is the tenancy subsystem's never-wrong-but-
// clean proof: a seeded fault that leaks a tenant's cap charge on block
// completion must be detected by the tenancy auditor as a typed
// invariant violation — the co-scheduled run can never finish cleanly
// with a corrupted ledger.
func TestTenantCapFaultCaught(t *testing.T) {
	setup := func() (*Sim, *tenancy.Spec, []*kernel.Launch) {
		cfg := config.Default()
		cfg.NumSMs = 2
		cfg.InvariantStride = 32
		spec := twoTenantSpec(tenancy.CoSched)
		sim := MustNew(cfg)
		launches := buildTenants(t, sim, spec, 1)
		return sim, spec, launches
	}

	// The same workload must pass cleanly without the fault.
	sim, spec, launches := setup()
	if _, err := sim.RunMulti(spec, launches); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	sim, spec, launches = setup()
	plan := fault.NewPlan(fault.CorruptTenantCap, 9, 4)
	sim.Faults = plan
	_, err := sim.RunMulti(spec, launches)
	if !plan.Injected {
		t.Fatal("cap-corruption fault never found an injection opportunity")
	}
	if err == nil {
		t.Fatalf("injected cap leak at cycle %d went undetected: run completed cleanly", plan.Cycle)
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error is not a SimError: %v", err)
	}
	if se.Kind != simerr.KindInvariant {
		t.Fatalf("cap leak caught as %s, want invariant: %v", se.Kind, err)
	}
	if se.Dump == nil {
		t.Error("invariant violation carries no forensic dump")
	}
	if se.Cycle < plan.Cycle {
		t.Errorf("violation reported at cycle %d, before the injection at %d", se.Cycle, plan.Cycle)
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
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
}
