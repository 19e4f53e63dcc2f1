package gpu

import (
	"encoding/json"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// runWorkloadCK is runWorkload with checkpoint knobs (see simulate).
func runWorkloadCK(tb testing.TB, name string, cfg config.Config, scale int,
	sink checkpoint.Sink, restore []byte) *stats.GPU {
	tb.Helper()
	g, err := simulate(cfg, name, nil, scale, sink, restore)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return g
}

// runMultiCK is runMulti with checkpoint knobs (see simulate).
func runMultiCK(tb testing.TB, cfg config.Config, spec *tenancy.Spec, scale int,
	sink checkpoint.Sink, restore []byte) *stats.GPU {
	tb.Helper()
	g, err := simulate(cfg, "", spec, scale, sink, restore)
	if err != nil {
		tb.Fatalf("RunMulti(%s): %v", spec.Policy, err)
	}
	return g
}

// encodeJSON returns the run's canonical byte encoding as a string.
func encodeJSON(tb testing.TB, g *stats.GPU) string {
	tb.Helper()
	j, err := g.EncodeJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return string(j)
}

// sampleCycles thins a checkpoint trail to at most max entries while
// always keeping the first and last, so restore sweeps stay affordable
// on long runs without losing the boundary cases.
func sampleCycles(cycles []int64, max int) []int64 {
	if len(cycles) <= max {
		return cycles
	}
	out := make([]int64, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, cycles[i*(len(cycles)-1)/(max-1)])
	}
	return out
}

// wantCheckpointKind asserts err is a typed KindCheckpoint SimError.
func wantCheckpointKind(tb testing.TB, err error, what string) {
	tb.Helper()
	if err == nil {
		tb.Fatalf("%s: accepted", what)
	}
	se, ok := simerr.As(err)
	if !ok {
		tb.Fatalf("%s: error is not a SimError: %v", what, err)
	}
	if se.Kind != simerr.KindCheckpoint {
		tb.Fatalf("%s: rejected as %s, want checkpoint: %v", what, se.Kind, err)
	}
}

// captureGaussian runs the gaussian workload under GTO with the given
// stride and returns the sink plus the straight-through stats bytes.
func captureGaussian(tb testing.TB, stride int64) (*checkpoint.MemSink, string) {
	tb.Helper()
	cfg := config.Default()
	cfg.Sched = config.SchedGTO
	cfg.CheckpointStride = stride
	sink := checkpoint.NewMemSink()
	g := runWorkloadCK(tb, "gaussian", cfg, 1, sink, nil)
	return sink, encodeJSON(tb, g)
}

// TestCheckpointStrideComplete proves no stride multiple is ever
// skipped: the trail holds every multiple of the stride up to the last
// loop iteration.
func TestCheckpointStrideComplete(t *testing.T) {
	const stride = 512
	cfg := config.Default()
	cfg.Sched = config.SchedGTO
	cfg.CheckpointStride = stride
	sink := checkpoint.NewMemSink()
	g := runWorkloadCK(t, "gaussian", cfg, 1, sink, nil)

	got := sink.List()
	var want []int64
	for c := int64(stride); c < g.Cycles; c += stride {
		want = append(want, c)
	}
	if len(got) != len(want) {
		t.Fatalf("checkpoint trail has %d entries, want %d (run of %d cycles, stride %d)",
			len(got), len(want), g.Cycles, stride)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoint %d taken at cycle %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCheckpointRejectsMismatchedRun: a checkpoint may only resume the
// exact experiment it was taken from. Wrong kernel, wrong
// configuration, wrong run mode, and corrupted bytes must all fail with
// a typed KindCheckpoint error before any state is touched.
func TestCheckpointRejectsMismatchedRun(t *testing.T) {
	sink, _ := captureGaussian(t, 500)
	_, blob, ok := sink.Latest()
	if !ok {
		t.Fatal("no checkpoint captured")
	}

	restoreInto := func(workload string, cfg config.Config, b []byte) error {
		spec, err := workloads.ByName(workload)
		if err != nil {
			t.Fatal(err)
		}
		sim := MustNew(cfg)
		sim.RestoreFrom = b
		inst := spec.Build(1)
		inst.Setup(sim.Mem)
		_, err = sim.Run(inst.Launch)
		return err
	}

	gto := config.Default()
	gto.Sched = config.SchedGTO

	wantCheckpointKind(t, restoreInto("CONV2", gto, blob), "checkpoint for a different kernel")

	lrr := config.Default()
	wantCheckpointKind(t, restoreInto("gaussian", lrr, blob), "checkpoint under a different configuration")

	{
		sim := MustNew(gto)
		sim.RestoreFrom = blob
		spec := twoTenantSpec(tenancy.CoSched)
		launches := buildTenants(t, sim, spec, 1)
		_, err := sim.RunMulti(spec, launches)
		wantCheckpointKind(t, err, "single-mode checkpoint in a multi-tenant run")
	}

	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0x40
	wantCheckpointKind(t, restoreInto("gaussian", gto, corrupt), "corrupted checkpoint")

	// Engine knobs are excluded from the identity cross-check: a
	// checkpoint taken by the optimised engine must restore in reference
	// mode.
	knobbed := gto
	knobbed.Reference = true
	if err := restoreInto("gaussian", knobbed, blob); err != nil {
		t.Fatalf("engine knobs invalidated a checkpoint: %v", err)
	}
}

// TestCheckpointRejectsTamperedLoopState: a payload that passes the
// container digest and every identity check but whose loop state indexes
// outside the machine or the grids must be rejected typed — DESIGN.md's
// "matches exactly or is rejected" — in every run mode, never panic in
// the dispatcher and never resume a wrong run.
func TestCheckpointRejectsTamperedLoopState(t *testing.T) {
	type tamper struct {
		name string
		mut  func(st *loopState)
	}
	pend := func(sm, slot int) func(*loopState) {
		return func(st *loopState) { st.Pending.push(pendingLaunch{sm: sm, slot: slot, at: 1 << 40}) }
	}
	common := []tamper{
		{"pending slot past the SM's slots", pend(0, 1<<20)},
		{"pending slot negative", pend(0, -1)},
		{"pending SM past the machine", pend(1<<20, 0)},
		{"dispatched past the grid", func(st *loopState) { st.Next[0] = 1 << 30 }},
		{"drained past dispatched", func(st *loopState) { st.Completed[0] = st.Next[0] + 1 }},
		{"drained negative", func(st *loopState) { st.Completed[0] = -1 }},
		{"short ledger", func(st *loopState) { st.Done = st.Done[:0] }},
	}
	for _, mode := range loopModes {
		t.Run(mode, func(t *testing.T) {
			cfg := config.Default()
			cfg.Sched = config.SchedGTO
			cfg.CheckpointStride = 1500
			name, spec := "gaussian", (*tenancy.Spec)(nil)
			tampers := append([]tamper(nil), common...)
			switch mode {
			case "single":
				tampers = append(tampers,
					tamper{"dyn vectors not one per SM", func(st *loopState) { st.Dyn.Last = st.Dyn.Last[:1] }},
					tamper{"dyn state missing", func(st *loopState) { st.Dyn = nil }},
					tamper{"slice state on a single-kernel run", func(st *loopState) { st.Slice = &sliceState{} }})
			default:
				policy, err := tenancy.ParsePolicy(mode)
				if err != nil {
					t.Fatal(err)
				}
				name, spec = "", twoTenantSpec(policy)
				if policy == tenancy.TimeSlice {
					tampers = append(tampers,
						tamper{"slice tenant out of range", func(st *loopState) { st.Slice.Tenant = len(st.Next) }},
						tamper{"slice state missing", func(st *loopState) { st.Slice = nil }})
				} else {
					tampers = append(tampers,
						tamper{"dyn state on a multi-tenant run", func(st *loopState) { st.Dyn = newDynState(cfg.NumSMs) }})
				}
			}
			sink := checkpoint.NewMemSink()
			if _, err := simulate(cfg, name, spec, 1, sink, nil); err != nil {
				t.Fatal(err)
			}
			_, blob, ok := sink.Latest()
			if !ok {
				t.Fatal("no checkpoint captured")
			}
			raw, err := checkpoint.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			// reencode applies mut to a fresh decode of the snapshot and
			// seals it in a digest-valid container again.
			reencode := func(mut func(*loopState)) []byte {
				var p payload
				if err := json.Unmarshal(raw, &p); err != nil {
					t.Fatal(err)
				}
				mut(p.Loop)
				out, err := json.Marshal(&p)
				if err != nil {
					t.Fatal(err)
				}
				return checkpoint.Encode(out)
			}
			cfg.CheckpointStride = 0
			// Control: the decode/re-encode trip alone is harmless.
			if _, err := simulate(cfg, name, spec, 1, nil, reencode(func(*loopState) {})); err != nil {
				t.Fatalf("untampered re-encoded checkpoint rejected: %v", err)
			}
			for _, tc := range tampers {
				_, err := simulate(cfg, name, spec, 1, nil, reencode(tc.mut))
				wantCheckpointKind(t, err, tc.name)
			}
		})
	}
}

// TestAuditCheckpoint: the bisect building block must restore a clean
// snapshot and report a clean audit, and reject a corrupt blob with a
// typed error rather than auditing garbage.
func TestAuditCheckpoint(t *testing.T) {
	sink, _ := captureGaussian(t, 700)
	wantCycle, blob, ok := sink.Latest()
	if !ok {
		t.Fatal("no checkpoint captured")
	}

	cfg := config.Default()
	cfg.Sched = config.SchedGTO
	sim := MustNew(cfg)
	spec, err := workloads.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	inst := spec.Build(1)
	inst.Setup(sim.Mem)

	cycle, err := sim.AuditCheckpoint(inst.Launch, blob)
	if err != nil {
		t.Fatalf("clean checkpoint fails its audit: %v", err)
	}
	if cycle != wantCycle {
		t.Fatalf("audit reports cycle %d, checkpoint was taken at %d", cycle, wantCycle)
	}

	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, err := sim.AuditCheckpoint(inst.Launch, corrupt); err == nil {
		t.Fatal("corrupt blob audited cleanly")
	} else {
		wantCheckpointKind(t, err, "corrupt blob audit")
	}
}
