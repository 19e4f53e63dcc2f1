package gpu

import (
	"testing"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/stats"
)

// memBoundKernel is the blocked-heavy workload: block 0 runs a long
// ALU loop (its SM issues nearly every cycle), odd blocks chase a chain
// of dependent global loads and spend most of their lives blocked on
// memory replies, and the remaining even blocks run dependent SFU
// chains blocked on the special-function pipeline. With one warp per
// block, nearly every SM except SM0 has nothing to issue on most
// cycles. A grid of 1 runs the ALU path alone (BenchmarkComputeBound).
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
	// issues nearly every cycle for the whole run.
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

// runBlockedSMs simulates memBoundKernel on a 56-SM machine, one warp
// per SM: SM0 stays busy while every other SM spends most cycles
// blocked, half on dependent global loads, half on SFU latency.
func runBlockedSMs(tb testing.TB, k *kernel.Kernel, cfg config.Config, sink checkpoint.Sink, restore []byte) *stats.GPU {
	tb.Helper()
	cfg.NumSMs = 56
	sim := MustNew(cfg)
	sim.CheckpointSink, sim.RestoreFrom = sink, restore
	buf := sim.Mem.Alloc(64 * 1024)
	g, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: cfg.NumSMs, Params: []uint32{buf}})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkBlockedSMs is the one profile the deleted per-SM sleep won
// on (DESIGN.md "Why the cycle loop skips nothing"): 56 SMs, one warp
// each, one busy and the rest blocked. tools/bench.sh gates its ns/op
// against BENCH_baseline.json.
func BenchmarkBlockedSMs(b *testing.B) {
	k := memBoundKernel(b)
	// One untimed run first, as in every end-to-end benchmark: its SMs go
	// to the spare list, so each timed op builds on spares whatever b.N
	// is and allocs/op does not depend on it (see BenchmarkComputeBound).
	runBlockedSMs(b, k, config.Default(), nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBlockedSMs(b, k, config.Default(), nil, nil)
	}
}

// BenchmarkComputeBound is the compute-bound regime end to end: a
// single ALU-bound block keeps SM0 issuing every cycle while the memory
// system sits drained, so every cycle ticks every partition and each
// DRAM channel returns at once on its empty queues.
// tools/bench.sh gates its ns/op against BENCH_baseline.json.
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
	// One untimed run first: lazy process-wide state (tables, the SMs
	// the spare list holds for the next run) otherwise lands in the first
	// iteration and makes allocs/op depend on b.N, which the allocation
	// gate cannot tolerate.
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
