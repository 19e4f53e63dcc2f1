package gpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// simulate builds a fresh simulator, runs the named workload (spec ==
// nil) or the spec's tenants on it, verifies every functional output,
// and returns the run statistics. sink receives snapshots every
// cfg.CheckpointStride cycles, and a non-nil restore blob resumes the
// run from that snapshot instead of cycle 0. Failure is an error rather
// than a testing.TB call, so goroutines other than the test's may use
// it; runWorkload, runMulti and their CK variants are the wrappers
// tests call.
func simulate(cfg config.Config, name string, spec *tenancy.Spec, scale int,
	sink checkpoint.Sink, restore []byte) (*stats.GPU, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sim.CheckpointSink, sim.RestoreFrom = sink, restore
	tenants := []tenancy.TenantSpec{{Workload: name}}
	if spec != nil {
		tenants = spec.Tenants
	}
	launches, checks, err := tenantLaunches(sim, tenants, scale)
	if err != nil {
		return nil, err
	}
	var g *stats.GPU
	if spec == nil {
		g, err = sim.Run(launches[0])
	} else {
		g, err = sim.RunMulti(spec, launches)
	}
	if err != nil {
		return nil, err
	}
	for i, check := range checks {
		if check == nil {
			continue
		}
		if err := check(sim.Mem); err != nil {
			return nil, fmt.Errorf("tenant %d (%s): functional check: %w", i, tenants[i].Workload, err)
		}
	}
	return g, nil
}

// tenantLaunches instantiates one workload per tenant on the
// simulator's global memory and returns the launches plus the
// functional checkers to run after the simulation (nil where a workload
// has none). A tenant's own Scale overrides scale.
func tenantLaunches(sim *Sim, tenants []tenancy.TenantSpec, scale int) ([]*kernel.Launch, []func(*mem.Global) error, error) {
	launches := make([]*kernel.Launch, len(tenants))
	checks := make([]func(*mem.Global) error, len(tenants))
	for i, ts := range tenants {
		ws, err := workloads.ByName(ts.Workload)
		if err != nil {
			return nil, nil, err
		}
		sc := ts.Scale
		if sc == 0 {
			sc = scale
		}
		inst := ws.Build(sc)
		inst.Setup(sim.Mem)
		launches[i], checks[i] = inst.Launch, inst.Check
	}
	return launches, checks, nil
}

// runWorkload simulates the named workload at the given scale.
func runWorkload(tb testing.TB, name string, cfg config.Config, scale int) *stats.GPU {
	tb.Helper()
	return runWorkloadCK(tb, name, cfg, scale, nil, nil)
}

// runFn simulates one row of the equivalence table under cfg, writing
// checkpoints into sink or resuming from the restore blob (see simulate).
type runFn func(tb testing.TB, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU

// onWorkload runs the named workload at scale 1.
func onWorkload(name string) runFn {
	return func(tb testing.TB, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU {
		return runWorkloadCK(tb, name, cfg, 1, sink, restore)
	}
}

// onTenants runs the spec's tenants at scale 1.
func onTenants(spec *tenancy.Spec) runFn {
	return func(tb testing.TB, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU {
		return runMultiCK(tb, cfg, spec, 1, sink, restore)
	}
}

// onBlockedSMs runs memBoundKernel on 56 SMs (see runBlockedSMs).
func onBlockedSMs(tb testing.TB, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU {
	return runBlockedSMs(tb, memBoundKernel(tb), cfg, sink, restore)
}

// reference returns cfg in reference mode.
func reference(cfg config.Config) config.Config {
	cfg.Reference = true
	return cfg
}

// shared is the default machine sharing resource at t = 0.1 (90 %)
// under scheduler sched.
func shared(resource config.SharingMode, sched config.SchedPolicy) config.Config {
	cfg := config.Default()
	cfg.Sharing, cfg.T, cfg.Sched = resource, 0.1, sched
	return cfg
}

// scheduled is the default machine under scheduler sched.
func scheduled(sched config.SchedPolicy) config.Config {
	cfg := config.Default()
	cfg.Sched = sched
	return cfg
}

// audited is cfg with every invariant class checked every cycle.
func audited(cfg config.Config) config.Config {
	cfg.InvariantStride = 1
	return cfg
}

// earlyRelease is Shared-OWF-Unroll with the §VIII early register
// release: the one tenant kind whose every issue re-snapshots the warp,
// and whose snapshot has a side effect (ReleaseReg).
func earlyRelease() config.Config {
	cfg := shared(config.ShareRegisters, config.SchedOWF)
	cfg.UnrollRegs, cfg.EarlyRegRelease = true, true
	return cfg
}

// regSharingDyn is the paper's best register-sharing configuration
// (Shared-OWF-Unroll-Dyn): pair locks, ownership transfers and the
// RNG-consuming dyn gate all in one run.
func regSharingDyn() config.Config {
	cfg := shared(config.ShareRegisters, config.SchedOWF)
	cfg.UnrollRegs, cfg.DynWarp = true, true
	return cfg
}

// legKind is the check one leg of an equivalence row makes. Every leg
// must land on the row's reference run (Config.Reference, which asks
// every warp every cycle), deep-equal and byte for byte in the
// canonical JSON encoding.
type legKind int

const (
	// optimisedLeg runs the optimised engine: cached warp snapshots and
	// censuses.
	optimisedLeg legKind = iota
	// referenceLeg runs the reference a second time.
	referenceLeg
	// restoreLeg checks that taking checkpoints does not perturb the
	// run, that resuming from up to six snapshots of the trail
	// reproduces it, and that so does resuming from the middle one of
	// those in reference mode.
	restoreLeg
	// auditedLeg runs the optimised engine with every invariant class,
	// the census audit included, checked every cycle. On an
	// early-release config it also asserts that a release fired.
	auditedLeg
	// envLeg checks GPUSHARE_REFERENCE=1 ≡ Config.Reference: the
	// simulator reports reference mode, and the bytes match.
	envLeg
)

// leg is one named check of an equivalence row. An empty name makes the
// check in the row's own test instead of a subtest.
type leg struct {
	name string
	kind legKind
	full bool // skipped under -short on a trimmed row
}

// knobLegs names optimised and reference repeat legs. The names are
// stable test IDs from when the engine had four knobs and a worker
// pool: a "nosnapshot" leg re-runs the reference, every other leg the
// optimised engine. Legs of one kind are repeat runs in one process, so
// they pin that a simulation leaves nothing behind that moves the next
// one's statistics.
func knobLegs(names ...string) []leg {
	legs := make([]leg, len(names))
	for i, name := range names {
		legs[i] = leg{name: name, kind: optimisedLeg}
		if strings.Contains(name, "nosnapshot") {
			legs[i].kind = referenceLeg
		}
	}
	return legs
}

// equivRow is one (workload or tenancy spec, config) pair the optimised
// engine is held to the reference on, with the legs that check it.
type equivRow struct {
	name    string // subtest name; empty checks the row in the test itself
	run     runFn
	cfg     config.Config
	tenants int   // per-tenant entries the run carries (0: a single kernel)
	stride  int64 // checkpoint stride of the restore leg; 0 is a quarter of the run
	slow    bool  // skipped under -short (minutes under -race or at stride 1)
	trim    bool  // under -short: no full legs, and the restore leg resumes once
	legs    []leg
}

// checkRows is the one body of the engine-equivalence tests. For each
// row the reference run is made once and each leg, in order, must land
// on its statistics (see legKind). Every compared run of a tenancy row
// must also decompose the machine totals into its per-tenant counters
// (checkTenantSums). Named rows run in parallel with each other.
func checkRows(t *testing.T, rows []equivRow) {
	for _, row := range rows {
		if row.name == "" {
			checkRow(t, row)
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			checkRow(t, row)
		})
	}
}

// checkRow runs one row of checkRows.
func checkRow(t *testing.T, row equivRow) {
	if row.slow && testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := row.cfg
	ref := row.run(t, reference(cfg), nil, nil)
	if len(ref.Tenants) != row.tenants {
		t.Fatalf("run carries %d tenant entries, want %d", len(ref.Tenants), row.tenants)
	}
	refJSON := encodeJSON(t, ref)
	// matches reports whether g, the run named by what, lands on the
	// reference.
	matches := func(t *testing.T, g *stats.GPU, what string) bool {
		t.Helper()
		checkTenantSums(t, g, what)
		if !reflect.DeepEqual(ref, g) {
			t.Errorf("%s: stats diverge from the reference:\n--- reference\n%s--- %s\n%s",
				what, ref.Report(), what, g.Report())
			return false
		}
		if encodeJSON(t, g) != refJSON {
			t.Errorf("%s: canonical JSON encoding differs from the reference", what)
			return false
		}
		return true
	}

	for _, l := range row.legs {
		check := func(t *testing.T) {
			if row.trim && l.full && testing.Short() {
				t.Skip("full-mode only")
			}
			switch l.kind {
			case optimisedLeg:
				matches(t, row.run(t, cfg, nil, nil), "optimised run")
			case referenceLeg:
				matches(t, row.run(t, reference(cfg), nil, nil), "second reference run")
			case envLeg:
				t.Setenv("GPUSHARE_REFERENCE", "1")
				if sim := MustNew(cfg); !sim.Cfg.Reference {
					t.Error("GPUSHARE_REFERENCE=1 did not select reference mode")
				}
				matches(t, row.run(t, cfg, nil, nil), "GPUSHARE_REFERENCE=1 run")
			case auditedLeg:
				matches(t, row.run(t, audited(cfg), nil, nil), "run audited every cycle")
				if cfg.EarlyRegRelease {
					var rel int64
					for i := range ref.SMs {
						rel += ref.SMs[i].EarlyRegRelease
					}
					if rel == 0 {
						t.Error("no early release fired: the row does not exercise the release")
					}
				}
			case restoreLeg:
				ckCfg := cfg
				ckCfg.CheckpointStride = row.stride
				if ckCfg.CheckpointStride == 0 {
					ckCfg.CheckpointStride = max(ref.Cycles/4, 1)
				}
				sink := checkpoint.NewMemSink()
				if !matches(t, row.run(t, ckCfg, sink, nil), "checkpointing run") {
					t.FailNow()
				}
				cycles := sink.List()
				if len(cycles) == 0 {
					t.Fatalf("no checkpoints taken in %d cycles at stride %d", ref.Cycles, ckCfg.CheckpointStride)
				}
				sample := sampleCycles(cycles, 6)
				mid := sample[len(sample)/2]
				if row.trim && testing.Short() {
					// One optimised resume, mid-trail; the full run
					// makes the others.
					sample = []int64{mid}
				}
				for _, cy := range sample {
					matches(t, row.run(t, cfg, nil, sink.Get(cy)), fmt.Sprintf("restore at cycle %d", cy))
				}
				if !row.trim || !testing.Short() {
					matches(t, row.run(t, reference(cfg), nil, sink.Get(mid)), fmt.Sprintf("reference restore at cycle %d", mid))
				}
			}
		}
		if l.name == "" {
			check(t)
		} else {
			t.Run(l.name, check)
		}
	}
}

// tenancyRows is the two-tenant gaussian+CONV2 spec under every tenancy
// policy, one row each, checked by legs. Stride 1024 against the
// 3000-cycle timeslice quota puts the restore leg's snapshots inside
// quanta and drain phases, the context-switch states hardest to resume.
func tenancyRows(legs ...leg) []equivRow {
	var rows []equivRow
	for _, p := range []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice} {
		row := equivRow{name: p.String(), run: onTenants(twoTenantSpec(p)),
			cfg: shared(config.ShareScratchpad, config.SchedLRR), tenants: 2, legs: legs}
		if p == tenancy.TimeSlice {
			row.stride = 1024
		}
		rows = append(rows, row)
	}
	return rows
}

// sleepLegs are the legs of the two single-row tests named after the
// deleted memory and SM sleep mechanisms. Their rows are trimmed: -short
// keeps two optimised legs and one restore.
var sleepLegs = []leg{
	{name: "workers=1", kind: optimisedLeg, full: true},
	{name: "workers=gomaxprocs", kind: optimisedLeg},
	{name: "workers=2_ff=off", kind: optimisedLeg},
	{name: "workers=1_nosnapshot", kind: referenceLeg, full: true},
	{name: "env-escape-hatch", kind: envLeg, full: true},
	{name: "restore", kind: restoreLeg},
}

// TestEngineDeterminism holds the engine to the reference on both
// sharing modes under OWF and LRR, the paths with the most cross-SM
// coupling through locks and ownership transfer, and on GTO unshared
// for the plain path. The engine mode is not a simulation parameter.
func TestEngineDeterminism(t *testing.T) {
	legs := append(knobLegs(
		"workers=1_ff=on", "workers=gomaxprocs_ff=on", "workers=2_ff=off",
		"workers=1_ff=on_nosnapshot", "workers=2_ff=off_nosnapshot",
		"workers=1_ff=on_nosleep", "workers=2_ff=off_nosleep"), leg{name: "restore", kind: restoreLeg})
	checkRows(t, []equivRow{
		{name: "hotspot/reg-sharing-owf", run: onWorkload("hotspot"), cfg: shared(config.ShareRegisters, config.SchedOWF), slow: true, legs: legs},
		{name: "CONV2/smem-sharing-lrr", run: onWorkload("CONV2"), cfg: shared(config.ShareScratchpad, config.SchedLRR), legs: legs},
		{name: "gaussian/unshared-gto", run: onWorkload("gaussian"), cfg: scheduled(config.SchedGTO), legs: legs},
	})
}

// TestMemSleepDeterminism holds the engine to the reference on MUM,
// whose divergent pointer chasing keeps requests, DRAM commands and
// replies in flight between idle DRAM spans (per-partition busy and
// peak counters are part of the compared bytes) and keeps most warps
// blocked, so most SM cycles are answered by the census. The name is a
// stable test ID; the memory sleep it once checked is gone.
func TestMemSleepDeterminism(t *testing.T) {
	checkRows(t, []equivRow{{run: onWorkload("MUM"), cfg: config.Default(), trim: true, legs: sleepLegs}})
}

// TestSMSleepDeterminism holds the engine to the reference on the
// blocked-SMs profile of BenchmarkBlockedSMs: whole SMs blocked for
// hundreds of cycles while one stays busy, so the census answers nearly
// every SM cycle without asking a warp and the DRAM channels sit mostly
// idle. The name is a
// stable test ID; per-SM sleep itself is gone.
func TestSMSleepDeterminism(t *testing.T) {
	checkRows(t, []equivRow{{run: onBlockedSMs, cfg: config.Default(), trim: true, legs: sleepLegs}})
}

// TestTenancyDeterminism holds the engine to the reference under all
// three tenancy policies, per-tenant breakdowns included.
func TestTenancyDeterminism(t *testing.T) {
	checkRows(t, tenancyRows(append(knobLegs(
		"workers=gomaxprocs", "workers=2",
		"workers=1_nosnapshot", "workers=2_nosnapshot",
		"workers=1_nosleep", "workers=2_nosleep"), leg{name: "restore", kind: restoreLeg})...))
}

// TestMemSleepTenancyDeterminism is the one-leg form of
// TestTenancyDeterminism, kept as a stable test ID: per policy, one
// optimised run against the reference.
func TestMemSleepTenancyDeterminism(t *testing.T) {
	checkRows(t, tenancyRows(leg{kind: optimisedLeg}))
}

// TestCensusExact holds the engine to the reference with the census
// audit on every cycle, on the inputs a census could leave stale: MSHR-full stalls (MUM), register-lock waits under the
// dyn gate (LIB), scratchpad-lock waits (lavaMD), the two-level policy,
// which ranks on load state no warp view caches (a quick kernel and a
// latency-bound one), an early release that must still fire at the
// scheduler's next refresh (epilogue) and two tenants' classes in one
// census. The restore row checks a census re-derived from nothing after
// a restore on its first cycle (the audit stride is part of the
// configuration a checkpoint is bound to).
func TestCensusExact(t *testing.T) {
	audit := []leg{{kind: auditedLeg}}
	checkRows(t, []equivRow{
		{name: "MUM/unshared-lrr", run: onWorkload("MUM"), cfg: config.Default(), slow: true, legs: audit},
		{name: "LIB/shared-owf-unroll-dyn", run: onWorkload("LIB"), cfg: regSharingDyn(), slow: true, legs: audit},
		{name: "lavaMD/shared-owf-scratchpad", run: onWorkload("lavaMD"), cfg: shared(config.ShareScratchpad, config.SchedOWF), legs: audit},
		{name: "two-level/gaussian", run: onWorkload("gaussian"), cfg: scheduled(config.SchedTwoLevel), legs: audit},
		{name: "two-level/MUM", run: onWorkload("MUM"), cfg: scheduled(config.SchedTwoLevel), slow: true, legs: audit},
		{name: "epilogue/shared-owf-unroll-early-release", run: onWorkload("epilogue"), cfg: earlyRelease(), legs: audit},
		{name: "hotspot+lavaMD/cosched", run: onTenants(&tenancy.Spec{Policy: tenancy.CoSched,
			Tenants: []tenancy.TenantSpec{{Workload: "hotspot"}, {Workload: "lavaMD"}}}),
			cfg: config.Default(), tenants: 2, slow: true, legs: audit},
		{name: "restore", run: onWorkload("b+tree"), cfg: audited(regSharingDyn()), slow: true,
			legs: []leg{{kind: restoreLeg}}},
	})
}

// tenantSums names every counter that stats.Tenant.AddCounters sums and
// stats.SM also carries: the counters smcore books twice, once in the
// SM's statistics and once in the issuing warp's tenant's. They are
// found by reflection, so a counter added to both types joins the check.
func tenantSums() []string {
	tt, st := reflect.TypeOf(stats.Tenant{}), reflect.TypeOf(stats.SM{})
	var names []string
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		if sf, ok := st.FieldByName(f.Name); !ok || f.Type.Kind() != reflect.Int64 || sf.Type != f.Type {
			continue
		}
		var a, b stats.Tenant
		reflect.ValueOf(&a).Elem().Field(i).SetInt(2)
		reflect.ValueOf(&b).Elem().Field(i).SetInt(3)
		if a.AddCounters(&b); reflect.ValueOf(a).Field(i).Int() == 5 { // summed, not kept at the maximum
			names = append(names, f.Name)
		}
	}
	return names
}

// checkTenantSums asserts that g's per-tenant counters decompose its
// machine totals: for every counter of tenantSums, the tenants' values
// add up to the sum over SMs. A counter booked in only one of the two
// ledgers fails by name. Single-kernel runs carry no tenants.
func checkTenantSums(t *testing.T, g *stats.GPU, what string) {
	t.Helper()
	if len(g.Tenants) == 0 {
		return
	}
	names := tenantSums()
	if len(names) == 0 {
		t.Fatal("no counter is summed by Tenant.AddCounters and carried by SM")
	}
	for _, name := range names {
		var perTenant, machine int64
		for i := range g.Tenants {
			perTenant += reflect.ValueOf(g.Tenants[i]).FieldByName(name).Int()
		}
		for i := range g.SMs {
			machine += reflect.ValueOf(g.SMs[i]).FieldByName(name).Int()
		}
		if perTenant != machine {
			t.Errorf("%s: per-tenant %s sums to %d, machine total is %d", what, name, perTenant, machine)
		}
	}
}

// BenchmarkRunHotspot measures end-to-end wall-clock for a full
// sharing-mode simulation (tools/bench.sh compares it against
// BENCH_baseline.json).
func BenchmarkRunHotspot(b *testing.B) {
	cfg := config.Default()
	cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
	cfg.Sched = config.SchedOWF
	spec, err := workloads.ByName("hotspot")
	if err != nil {
		b.Fatal(err)
	}
	op := func() {
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		inst := spec.Build(1)
		inst.Setup(sim.Mem)
		if _, err := sim.Run(inst.Launch); err != nil {
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
