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

// engineCases are the workload/config pairs the engine-determinism
// tests sweep: sharing-heavy configurations on both sharing modes (the
// paths with the most cross-SM coupling through locks and ownership
// transfer) plus an unshared scheduler for the plain path.
var engineCases = []struct {
	name     string
	workload string
	slow     bool // skipped in -short mode (minutes under -race)
	cfg      func() config.Config
}{
	{"hotspot/reg-sharing-owf", "hotspot", true, func() config.Config {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
		cfg.Sched = config.SchedOWF
		return cfg
	}},
	{"CONV2/smem-sharing-lrr", "CONV2", false, func() config.Config {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareScratchpad, 0.1
		return cfg
	}},
	{"gaussian/unshared-gto", "gaussian", false, func() config.Config {
		cfg := config.Default()
		cfg.Sched = config.SchedGTO
		return cfg
	}},
}

// engineModes is the whole determinism matrix: the optimised engine
// (the default) and Config.Reference, which asks every warp every cycle
// — the oracle the optimised engine must match byte for byte.
var engineModes = []engineMode{{"optimised", false}, {"reference", true}}

// engineMode is one named leg of a determinism test.
type engineMode struct {
	name      string
	reference bool
}

// apply returns cfg in this leg's engine mode.
func (m engineMode) apply(cfg config.Config) config.Config {
	cfg.Reference = m.reference
	return cfg
}

// reference returns cfg in reference mode.
func reference(cfg config.Config) config.Config {
	cfg.Reference = true
	return cfg
}

// legacyLegs maps the subtest names of the determinism tests onto
// engineModes. The names are stable test IDs from when the engine had
// four knobs and a worker pool (ROADMAP's housekeeping item retires
// them): "nosnapshot" legs run the reference, every other leg the
// optimised engine, so legs that share a mode are repeat runs in one
// process. They pin that a simulation leaves no state behind that moves
// the next one's statistics; the memory path holds no pool to warm
// (tools/check.sh keeps sync.Pool out of internal/mem and smcore).
func legacyLegs(names ...string) []engineMode {
	legs := make([]engineMode, len(names))
	for i, name := range names {
		legs[i] = engineMode{name, strings.Contains(name, "nosnapshot")}
	}
	return legs
}

// TestEngineDeterminism is the engine's correctness contract: the
// engine mode is not a simulation parameter. The optimised engine —
// cached warp snapshots, issue cards and censuses in the SM — must
// produce statistics deep-equal
// and, via the canonical JSON encoding, byte-identical to the reference
// that skips nothing.
func TestEngineDeterminism(t *testing.T) {
	legs := legacyLegs(
		"workers=1 ff=on", "workers=gomaxprocs ff=on", "workers=2 ff=off",
		"workers=1 ff=on nosnapshot", "workers=2 ff=off nosnapshot",
		"workers=1 ff=on nosleep", "workers=2 ff=off nosleep")
	for _, c := range engineCases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("simulation-heavy")
			}
			ref := runWorkload(t, c.workload, reference(c.cfg()), 1)
			refJSON := encodeJSON(t, ref)
			for _, m := range legs {
				t.Run(m.name, func(t *testing.T) {
					g := runWorkload(t, c.workload, m.apply(c.cfg()), 1)
					if !reflect.DeepEqual(ref, g) {
						t.Errorf("stats diverge from reference:\n--- reference\n%s--- variant\n%s",
							ref.Report(), g.Report())
					}
					if encodeJSON(t, g) != refJSON {
						t.Error("canonical JSON encoding differs from reference")
					}
				})
			}

			// Checkpoint/restore is an engine knob too: (a) taking
			// snapshots must not perturb the run, and (b) resuming from
			// any snapshot, in either mode, must reproduce the
			// straight-through bytes exactly.
			t.Run("restore", func(t *testing.T) {
				stride := ref.Cycles / 4
				if stride < 1 {
					stride = 1
				}
				ckCfg := c.cfg()
				ckCfg.CheckpointStride = stride
				sink := checkpoint.NewMemSink()
				if j := encodeJSON(t, runWorkloadCK(t, c.workload, ckCfg, 1, sink, nil)); j != refJSON {
					t.Fatal("enabling checkpoints changed the statistics")
				}
				cycles := sink.List()
				if len(cycles) == 0 {
					t.Fatalf("no checkpoints taken in %d cycles at stride %d", ref.Cycles, stride)
				}
				for _, cy := range sampleCycles(cycles, 6) {
					if j := encodeJSON(t, runWorkloadCK(t, c.workload, c.cfg(), 1, nil, sink.Get(cy))); j != refJSON {
						t.Errorf("restore at cycle %d diverges from straight-through", cy)
					}
				}
				mid := cycles[len(cycles)/2]
				for _, m := range engineModes {
					if j := encodeJSON(t, runWorkloadCK(t, c.workload, m.apply(c.cfg()), 1, nil, sink.Get(mid))); j != refJSON {
						t.Errorf("restore at cycle %d under %s diverges from straight-through", mid, m.name)
					}
				}
			})
		})
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
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
}
