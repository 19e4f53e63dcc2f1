package gpu

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
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
// a typed KindCheckpoint error before any state that outlives the run
// is touched.
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

// TestCheckpointRejectsBadSMState: an SM snapshot whose writeback names
// a warp slot past the SM's, whose finished list names a block slot
// past the SM's, whose writeback fell due before the restore cycle (its
// wheel slot never fires again), whose MSHR waiter names a warp slot
// past the SM's, whose in-flight loads disagree with a warp's load
// registers (a load line into a register that is not one of them, or
// one of them with no line in flight), or whose warp register file or
// predicates are not the kernel's length (a word long, a word short,
// null) is rejected with a typed KindCheckpoint error, not a panic or a
// run that waits for the watchdog. The register rows hold the decode
// into the machine's own register files to the length checks a decode
// into fresh slices had. Each bad value is spliced into a real
// checkpoint, which is then sealed again.
func TestCheckpointRejectsBadSMState(t *testing.T) {
	sink, _ := captureGaussian(t, 500)
	cycles := sink.List()
	if len(cycles) == 0 {
		t.Fatal("no checkpoint captured")
	}
	raw, err := checkpoint.Decode(sink.Get(cycles[len(cycles)/2]))
	if err != nil {
		t.Fatal(err)
	}
	// splice applies mut to the first SM of a fresh decode of the
	// snapshot that mut takes (it returns false to pass an SM by) and
	// seals the result again.
	splice := func(what string, mut func(c *smcore.Checkpoint, cycle int64) bool) []byte {
		var p payload
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		for i := range p.Machine.SMs {
			if mut(&p.Machine.SMs[i], p.Cycle) {
				out, err := json.Marshal(&p)
				if err != nil {
					t.Fatal(err)
				}
				return checkpoint.Encode(out)
			}
		}
		t.Fatalf("%s: no SM at cycle %d to splice into", what, p.Cycle)
		return nil
	}
	// freeReg returns a register of warp w that no load of it writes.
	freeReg := func(w *smcore.WarpCheckpoint) (uint8, bool) {
		for r := 0; r < len(w.W.Regs)/kernel.WarpSize; r++ {
			if w.LoadRegs&(1<<r) == 0 {
				return uint8(r), true
			}
		}
		return 0, false
	}
	cfg := config.Default()
	cfg.Sched = config.SchedGTO
	if _, err := simulate(cfg, "gaussian", nil, 1, nil, splice("unspliced", func(*smcore.Checkpoint, int64) bool { return true })); err != nil {
		t.Fatalf("unspliced re-encoded checkpoint rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(c *smcore.Checkpoint, cycle int64) bool
	}{
		{"writeback warp slot out of range", func(c *smcore.Checkpoint, _ int64) bool {
			if len(c.WB) == 0 {
				return false
			}
			c.WB[0].WarpSlot = len(c.Warps)
			return true
		}},
		{"finished block slot out of range", func(c *smcore.Checkpoint, _ int64) bool {
			c.Finished = append(c.Finished, len(c.Blocks))
			return true
		}},
		{"writeback due before the restore cycle", func(c *smcore.Checkpoint, cycle int64) bool {
			if len(c.WB) == 0 {
				return false
			}
			c.WB[0].At = cycle - 1
			return true
		}},
		{"MSHR waiter warp slot out of range", func(c *smcore.Checkpoint, _ int64) bool {
			if len(c.MSHR) == 0 {
				return false
			}
			c.MSHR[0].Loads[0].Slot = int32(len(c.Warps))
			return true
		}},
		{"load line into a register not among its warp's load regs", func(c *smcore.Checkpoint, _ int64) bool {
			for _, e := range c.MSHR {
				for k, r := range e.Loads {
					w := &c.Warps[r.Slot]
					if reg, ok := freeReg(w); ok && w.Gen == r.Gen {
						e.Loads[k].Reg = reg
						return true
					}
				}
			}
			return false
		}},
		{"warp register file one word long", func(c *smcore.Checkpoint, _ int64) bool {
			w := &c.Warps[0].W
			w.Regs = append(w.Regs, 7)
			return len(w.Regs) > 1
		}},
		{"warp register file one word short", func(c *smcore.Checkpoint, _ int64) bool {
			w := &c.Warps[0].W
			if len(w.Regs) == 0 {
				return false
			}
			w.Regs = w.Regs[:len(w.Regs)-1]
			return true
		}},
		{"warp register file null for a kernel with registers", func(c *smcore.Checkpoint, _ int64) bool {
			w := &c.Warps[0].W
			if len(w.Regs) == 0 {
				return false
			}
			w.Regs = nil
			return true
		}},
		{"warp predicates one register long", func(c *smcore.Checkpoint, _ int64) bool {
			w := &c.Warps[0].W
			w.Preds = append(w.Preds, 1)
			return true
		}},
		{"warp predicates one register short", func(c *smcore.Checkpoint, _ int64) bool {
			w := &c.Warps[0].W
			w.Preds = w.Preds[:len(w.Preds)-1]
			return true
		}},
		{"load reg with no line in flight", func(c *smcore.Checkpoint, _ int64) bool {
			for i := range c.Warps {
				w := &c.Warps[i]
				if reg, ok := freeReg(w); ok && w.Live && !w.Finished && w.PendingRegs&(1<<reg) == 0 {
					w.LoadRegs |= 1 << reg
					w.PendingRegs |= 1 << reg
					return true
				}
			}
			return false
		}},
	} {
		_, err := simulate(cfg, "gaussian", nil, 1, nil, splice(tc.name, tc.mut))
		wantCheckpointKind(t, err, tc.name)
	}
}

// TestRejectedRestoreLeavesMemory: the memory system and the backing
// store outlive a run, so a checkpoint rejected at any stage of its
// restore — in an SM's state (applied first), in the last partition of
// the memory system's, or in a backing-store page (checked last) —
// must leave both byte-identical to before: the same L2 tags, DRAM
// banks and queues, pages and allocator cursor. The same simulator then
// runs the launch cold, the runner's fallback, to a fresh run's
// statistics bytes and passes the functional check.
func TestRejectedRestoreLeavesMemory(t *testing.T) {
	sink, _ := captureGaussian(t, 500)
	cycles := sink.List()
	if len(cycles) == 0 {
		t.Fatal("no checkpoint captured")
	}
	raw, err := checkpoint.Decode(sink.Get(cycles[len(cycles)/2]))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Sched = config.SchedGTO
	fresh, err := simulate(cfg, "gaussian", nil, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeJSON(t, fresh)
	// memory returns the JSON of the simulator's memory system and
	// backing store.
	memory := func(sim *Sim) string {
		ms, err := json.Marshal(sim.ms.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		g, err := json.Marshal(sim.Mem.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		return string(ms) + string(g)
	}
	for _, tc := range []struct {
		name string
		mut  func(p *payload)
	}{
		{"warp register file one word short", func(p *payload) {
			w := &p.Machine.SMs[len(p.Machine.SMs)-1].Warps[0].W
			w.Regs = w.Regs[:len(w.Regs)-1]
		}},
		{"last partition's DRAM banks of the wrong geometry", func(p *payload) {
			d := &p.Machine.Mem.Partitions[len(p.Machine.Mem.Partitions)-1].DRAM
			d.Banks = d.Banks[:1]
		}},
		{"backing-store page of the wrong size", func(p *payload) {
			pg := &p.Machine.Global.Pages[len(p.Machine.Global.Pages)-1]
			pg.Data = pg.Data[:100]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p payload
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			tc.mut(&p)
			out, err := json.Marshal(&p)
			if err != nil {
				t.Fatal(err)
			}
			sim := MustNew(cfg)
			launches, checks, err := tenantLaunches(sim, []tenancy.TenantSpec{{Workload: "gaussian"}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := memory(sim)
			sim.RestoreFrom = checkpoint.Encode(out)
			_, err = sim.Run(launches[0])
			wantCheckpointKind(t, err, tc.name)
			if after := memory(sim); after != before {
				t.Fatalf("the rejected restore changed the memory system or the backing store (%d bytes of JSON before, %d after)",
					len(before), len(after))
			}
			sim.RestoreFrom = nil
			g, err := sim.Run(launches[0])
			if err != nil {
				t.Fatalf("cold run after the rejected restore: %v", err)
			}
			if got := encodeJSON(t, g); got != want {
				t.Error("the cold run after a rejected restore differs from a fresh simulator's run")
			}
			if err := checks[0](sim.Mem); err != nil {
				t.Errorf("cold run after the rejected restore: functional check: %v", err)
			}
		})
	}
}

// TestCheckpointRejectsFormatVersion1: a container of the previous
// format revision, whose payload held each SM's in-flight loads as a
// group table, is rejected with KindCheckpoint before any of it is
// decoded, so a runner drops such a trail and starts the job cold.
func TestCheckpointRejectsFormatVersion1(t *testing.T) {
	sink, _ := captureGaussian(t, 500)
	cycles := sink.List()
	if len(cycles) == 0 {
		t.Fatal("no checkpoint captured")
	}
	blob := bytes.Clone(sink.Get(cycles[0]))
	binary.LittleEndian.PutUint32(blob[4:8], 1)
	cfg := config.Default()
	cfg.Sched = config.SchedGTO
	_, err := simulate(cfg, "gaussian", nil, 1, nil, blob)
	wantCheckpointKind(t, err, "format version 1 container")
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
