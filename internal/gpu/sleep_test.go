package gpu

import (
	"fmt"
	"sort"
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// sleepChainKernel is a one-warp dependent ALU chain: each IAdd reads
// the register the previous one writes, so the warp stalls on the
// scoreboard for the full SP pipeline latency between issues. Every
// stall window is a provable per-SM sleep bounded by a writeback
// deadline — no memory traffic, no replies, no launches — which makes
// sleep episodes exactly reproducible across checkpoint/restore.
func sleepChainKernel(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	b := kernel.NewBuilder("sleepchain", 32)
	b.SetRegs(8)
	b.MovI(0, 0)
	for i := 0; i < 64; i++ {
		b.IAdd(0, isa.Reg(0), isa.Imm(1))
	}
	b.Exit()
	return b.MustBuild()
}

// memBoundKernel is the blocked-heavy benchmark workload: block 0 runs
// a long dependent ALU loop (its SM keeps issuing, so the machine-global
// idle fast-forward never arms), odd blocks chase a chain of dependent
// global loads and spend most of their lives blocked on memory replies,
// and the remaining even blocks run dependent SFU chains blocked on the
// special-function pipeline. With one warp per block, nearly every SM
// except SM0 is asleep on most cycles — the profile the per-SM sleep
// machinery targets.
func memBoundKernel(tb testing.TB) *kernel.Kernel {
	tb.Helper()
	b := kernel.NewBuilder("membound", 32)
	b.Params(1).SetRegs(12)
	b.Mov(0, isa.Sreg(isa.SrCtaid))
	b.Setp(isa.CmpEQ, 1, isa.Reg(0), isa.Imm(0))
	b.BraIf(1, false, "alu", "notalu")
	b.Label("notalu")
	b.And(1, isa.Reg(0), isa.Imm(1))
	b.Setp(isa.CmpNE, 1, isa.Reg(1), isa.Imm(0))
	b.BraIf(1, false, "mem", "sfu")

	// SFU path: a dependent square-root chain; every issue blocks the
	// warp for the full SFU pipeline depth.
	b.Label("sfu")
	b.MovF(2, 1.5)
	b.MovI(4, 0)
	b.Label("sloop")
	b.FSqrt(2, isa.Reg(2))
	b.FSqrt(2, isa.Reg(2))
	b.FSqrt(2, isa.Reg(2))
	b.FSqrt(2, isa.Reg(2))
	b.IAdd(4, isa.Reg(4), isa.Imm(1))
	b.Setp(isa.CmpNE, 0, isa.Reg(4), isa.Imm(96))
	b.BraIf(0, false, "sloop", "sdone")
	b.Label("sdone")
	b.Bra("end")

	// Memory path: dependent global loads (the address chains through
	// each loaded value) striding a cache line apart. The warp issues a
	// handful of instructions per miss and is blocked the rest.
	b.Label("mem")
	b.Mov(2, isa.Sreg(isa.SrTid))
	b.Shl(2, isa.Reg(2), isa.Imm(2))
	b.LdParam(3, 0)
	b.IAdd(2, isa.Reg(2), isa.Reg(3))
	b.MovI(4, 0)
	b.Label("mloop")
	b.LdG(5, isa.Reg(2), 0)
	b.IAdd(2, isa.Reg(5), isa.Reg(2)) // loaded values are zero: addresses stay tid*4 + i*128
	b.IAdd(2, isa.Reg(2), isa.Imm(128))
	b.IAdd(4, isa.Reg(4), isa.Imm(1))
	b.Setp(isa.CmpNE, 0, isa.Reg(4), isa.Imm(96))
	b.BraIf(0, false, "mloop", "mdone")
	b.Label("mdone")
	b.Bra("end")

	// ALU path: interleaved independent accumulator chains, so SM0
	// issues nearly every cycle for the whole run — the machine-global
	// fast-forward never sees a quiet machine.
	b.Label("alu")
	b.MovI(6, 0)
	b.MovI(7, 0)
	b.MovI(8, 0)
	b.MovI(9, 0)
	b.MovI(10, 0)
	b.Label("aloop")
	b.IAdd(7, isa.Reg(7), isa.Imm(1))
	b.IAdd(8, isa.Reg(8), isa.Imm(1))
	b.IAdd(9, isa.Reg(9), isa.Imm(1))
	b.IAdd(10, isa.Reg(10), isa.Imm(1))
	b.IAdd(6, isa.Reg(6), isa.Imm(1))
	b.Setp(isa.CmpNE, 0, isa.Reg(6), isa.Imm(4096))
	b.BraIf(0, false, "aloop", "end")

	b.Label("end")
	b.Exit()
	return b.MustBuild()
}

// sleepVariant is one engine-knob leg of the SM-sleep and mem-sleep
// determinism tests.
type sleepVariant struct {
	name         string
	noFF, noSnap bool
}

func (v sleepVariant) cfg() config.Config {
	cfg := config.Default()
	cfg.NoFastForward = v.noFF
	cfg.NoSnapshot = v.noSnap
	return cfg
}

// Leg names are stable test IDs: their "workers=" prefix dates from the
// removed intra-run worker pool and selects nothing (see
// TestEngineDeterminism).
var sleepVariants = []sleepVariant{
	{"workers=1", false, false},
	{"workers=gomaxprocs", false, false},
	{"workers=2 ff=off", true, false},
	{"workers=1 nosnapshot", false, true},
}

// TestSMSleepDeterminism pins the tentpole's correctness contract on a
// workload where sleep actually dominates: MUM's divergent pointer
// chasing keeps most warps blocked on memory replies, so SMs sleep and
// wake constantly. Every sleep-on engine variant — fast-forward and
// snapshot modes, the env escape hatch, and resuming from a checkpoint
// taken mid-run by a sleeping machine — must produce statistics
// byte-identical to the sleep-off reference.
func TestSMSleepDeterminism(t *testing.T) {
	refCfg := config.Default()
	refCfg.NoSMSleep = true
	ref := runWorkload(t, "MUM", refCfg, 1)
	refJSON := encodeJSON(t, ref)

	for _, v := range sleepVariants {
		t.Run(v.name, func(t *testing.T) {
			if j := encodeJSON(t, runWorkload(t, "MUM", v.cfg(), 1)); j != refJSON {
				t.Error("sleep-on stats diverge from the sleep-off reference")
			}
		})
	}

	// GPUSHARE_NOSMSLEEP must behave exactly like Config.NoSMSleep.
	t.Run("env-escape-hatch", func(t *testing.T) {
		t.Setenv("GPUSHARE_NOSMSLEEP", "1")
		cfg := config.Default()
		if j := encodeJSON(t, runWorkload(t, "MUM", cfg, 1)); j != refJSON {
			t.Error("GPUSHARE_NOSMSLEEP=1 run diverges from Config.NoSMSleep reference")
		}
	})

	// Checkpoints taken by a sleeping machine restore exactly: the trail
	// is recorded with sleep on, then every engine variant resumes from
	// a mid-run snapshot and must land on the reference bytes.
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
		for _, v := range sleepVariants {
			if j := encodeJSON(t, runWorkloadCK(t, "MUM", v.cfg(), 1, nil, sink.Get(mid))); j != refJSON {
				t.Errorf("restore at cycle %d under %s diverges from straight-through", mid, v.name)
			}
		}
	})
}

// sleepEpisode is one SleepTrace record: SM id, the model cycle the
// sleep was entered at, and the computed wake cycle.
type sleepEpisode struct {
	sm    int
	entry int64
	wake  int64
}

// TestSMSleepCheckpointWakeCycles: a checkpoint taken while SMs are
// asleep must restore into a run whose subsequent sleep episodes have
// identical wake cycles. The workload is an ALU-only dependent chain so
// every wake cycle is bounded by a writeback wheel deadline — absolute
// cycle numbers that the checkpoint preserves exactly — and never
// shortened after entry by a memory reply.
func TestSMSleepCheckpointWakeCycles(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 4
	cfg.CheckpointStride = 64
	k := sleepChainKernel(t)
	launch := &kernel.Launch{Kernel: k, GridDim: cfg.NumSMs} // one block per SM: no refills, no launch wakes

	run := func(restore []byte, sink checkpoint.Sink) ([]sleepEpisode, string) {
		sim := MustNew(cfg)
		sim.CheckpointSink = sink
		sim.RestoreFrom = restore
		var eps []sleepEpisode
		sim.SleepTrace = func(smID int, now, wakeAt int64) {
			eps = append(eps, sleepEpisode{sm: smID, entry: now, wake: wakeAt})
		}
		g, err := sim.Run(launch)
		if err != nil {
			t.Fatal(err)
		}
		return eps, encodeJSON(t, g)
	}

	sink := checkpoint.NewMemSink()
	orig, origJSON := run(nil, sink)
	if len(orig) == 0 {
		t.Fatal("dependent ALU chain produced no sleep episodes")
	}

	// Find a checkpoint cycle r that lands strictly inside a sleep:
	// entry < r < wake means the SM was asleep when the snapshot for
	// cycle r (machine state at end of r-1) was captured.
	cycles := sink.List()
	r := int64(-1)
	for _, c := range cycles {
		for _, e := range orig {
			if e.entry < c && c < e.wake {
				r = c
				break
			}
		}
	}
	if r < 0 {
		t.Fatalf("no checkpoint in %v was taken while an SM slept (episodes: %d)", cycles, len(orig))
	}

	restored, restoredJSON := run(sink.Get(r), nil)
	if restoredJSON != origJSON {
		t.Error("restored run's statistics diverge from the original")
	}

	// Wake-cycle multisets must match. Sleeps that ended at or before
	// the restore point exist only in the original; a sleep spanning r
	// re-enters in the restored run at a later model cycle but must
	// compute the same absolute wake cycle. The restored run's first
	// possible sleep has wake >= r+3 (arm at r, model at r+1, damping
	// below r+3), so episodes waking earlier are original-only by
	// construction and excluded from the comparison.
	filter := func(eps []sleepEpisode) []string {
		var out []string
		for _, e := range eps {
			if e.wake >= r+3 {
				out = append(out, fmt.Sprintf("SM%d@%d", e.sm, e.wake))
			}
		}
		sort.Strings(out)
		return out
	}
	a, b := filter(orig), filter(restored)
	if len(a) != len(b) {
		t.Fatalf("wake-cycle multisets differ in size: original %d, restored %d (restore at %d)", len(a), len(b), r)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wake-cycle multisets diverge at %d: original %s, restored %s (restore at %d)", i, a[i], b[i], r)
		}
	}
}

// TestSMSleepMissedWakeCaught: the MissedWake fault pushes one sleep's
// wake cycle past its true horizon, so the sleeping SM skips a cycle
// where it had live work (a writeback deadline). The invariant auditor
// must catch it — either the sleep class's recomputed-horizon check
// before the deadline passes, or the scoreboard class's never-fired
// writeback check after — and never let the run finish wrong-but-clean.
func TestSMSleepMissedWakeCaught(t *testing.T) {
	setup := func() (*Sim, *kernel.Launch) {
		cfg := config.Default()
		cfg.NumSMs = 2
		cfg.InvariantStride = 32
		sim := MustNew(cfg)
		return sim, &kernel.Launch{Kernel: sleepChainKernel(t), GridDim: 2}
	}

	// The same workload must pass cleanly — with sleep on and the sleep
	// class audited — without the fault.
	sim, l := setup()
	if _, err := sim.Run(l); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	sim, l = setup()
	plan := fault.NewPlan(fault.MissedWake, 13, 4)
	sim.Faults = plan
	_, err := sim.Run(l)
	if !plan.Injected {
		t.Fatal("missed-wake fault never found an injection opportunity")
	}
	if err == nil {
		t.Fatalf("missed wake injected at cycle %d went undetected: run completed cleanly", plan.Cycle)
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error is not a SimError: %v", err)
	}
	if se.Kind != simerr.KindInvariant {
		t.Fatalf("missed wake caught as %s, want invariant: %v", se.Kind, err)
	}
	if se.Dump == nil {
		t.Error("invariant violation carries no forensic dump")
	}
	if se.Cycle < plan.Cycle {
		t.Errorf("violation reported at cycle %d, before the injection at %d", se.Cycle, plan.Cycle)
	}
}

// BenchmarkSMSleepMemBound is the blocked-heavy profile the per-SM
// sleep targets, at a paper-scale SM count: one SM stays busy on an
// ALU loop (defeating the machine-global idle fast-forward) while
// every other SM spends most cycles blocked — half on dependent global
// loads, half on SFU pipeline latency. tools/bench.sh gates its ns/op
// against BENCH_baseline.json; compare against a GPUSHARE_NOSMSLEEP=1
// run for the sleep speedup itself.
func BenchmarkSMSleepMemBound(b *testing.B) {
	cfg := config.Default()
	cfg.NumSMs = 56
	k := memBoundKernel(b)
	grid := cfg.NumSMs // one warp per SM: a blocked SM has nothing else to issue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := MustNew(cfg)
		buf := sim.Mem.Alloc(64 * 1024)
		if _, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: grid, Params: []uint32{buf}}); err != nil {
			b.Fatal(err)
		}
	}
}
