package smcore

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// benchKernel is a steady-state mix of global loads, arithmetic, and a
// global store per thread — enough memory traffic to keep the LSU, L1
// MSHRs, and writeback queue busy without finishing instantly.
func benchKernel() *kernel.Kernel { return benchKernelDim(64) }

// benchKernelDim is benchKernel at an arbitrary block size, so the
// high-occupancy benchmark can pack more warps per block.
func benchKernelDim(blockDim int) *kernel.Kernel {
	b := kernel.NewBuilder("bench", blockDim)
	b.Params(2).SetRegs(12)
	const (
		rGid, rIn, rOut, rA, rV, rT, rJ = 10, 11, 9, 0, 1, 2, 3
	)
	b.IMad(rGid, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rIn, isa.Reg(rIn), isa.Reg(rT))
	b.IAdd(rOut, isa.Reg(rOut), isa.Reg(rT))
	b.MovI(rJ, 0)
	b.MovF(rV, 0)
	b.Label("loop")
	b.LdG(rA, isa.Reg(rIn), 0)
	b.FFma(rV, isa.Reg(rA), isa.Reg(rA), isa.Reg(rV))
	b.FAdd(rV, isa.Reg(rV), isa.Reg(rA))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(8))
	b.BraIf(0, false, "loop", "done")
	b.Label("done")
	b.StG(isa.Reg(rOut), 0, isa.Reg(rV))
	b.Exit()
	return b.MustBuild()
}

// tickSM isolates the Tick call so the benchmark body reads as one
// cycle of work.
func tickSM(sm *SM, now int64) error {
	_, err := sm.Tick(now)
	return err
}

// benchTicks drives one fully occupied SM plus the memory system for
// b.N cycles: completed blocks are relaunched immediately, so the SM
// never drains and every iteration is one steady-state Tick. minWarps
// guards the high-occupancy benchmarks against an occupancy change
// silently thinning them out.
func benchTicks(b *testing.B, k *kernel.Kernel, gridDim, minWarps int) {
	cfg := config.Default()
	ms := mem.NewSystem(&cfg)
	nThreads := 1 << 22
	in := ms.Global.Alloc(4 * nThreads)
	out := ms.Global.Alloc(4 * nThreads)
	l := &kernel.Launch{Kernel: k, GridDim: gridDim, Params: []uint32{in, out}}
	occ := core.ComputeOccupancy(&cfg, k)
	if warps := occ.Max * k.WarpsPerBlock(); warps < minWarps {
		b.Fatalf("only %d resident warps, want >= %d", warps, minWarps)
	}
	sm, err := New(0, &cfg, l, occ, ms)
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	for slot := 0; slot < occ.Max; slot++ {
		if err := sm.LaunchBlock(slot, next); err != nil {
			b.Fatal(err)
		}
		next++
	}
	b.ReportAllocs()
	b.ResetTimer()
	var now int64
	for i := 0; i < b.N; i++ {
		if err := tickSM(sm, now); err != nil {
			b.Fatal(err)
		}
		ms.Tick(now)
		for _, slot := range sm.FinishedSlots() {
			if err := sm.LaunchBlock(slot, next%l.GridDim); err != nil {
				b.Fatal(err)
			}
			next++
		}
		now++
	}
}

// BenchmarkSMTick measures one SM-plus-memory cycle in steady state on
// the global-load/arithmetic kernel at 2 warps per block.
func BenchmarkSMTick(b *testing.B) { benchTicks(b, benchKernel(), 1<<16, 0) }

// BenchmarkSMTickManyWarps is BenchmarkSMTick at high occupancy: 6-warp
// blocks filling every resident slot, the regime where per-cycle
// scheduler ranking dominates and the ready-set engine matters most.
func BenchmarkSMTickManyWarps(b *testing.B) { benchTicks(b, benchKernelDim(192), 1<<14, 48) }

// scratchpadKernel is a tiled kernel in the shape of the Set-2 proxies:
// each thread stages a global word into the block's scratchpad, the
// block synchronises, every thread then reads eight neighbours' words
// (conflict-free, rotated by the loop counter) and accumulates, and
// after a second barrier stores its sum. Its issue stream is dominated
// by ld.shared/st.shared/bar.sync, which BenchmarkSMTick's kernel never
// executes.
func scratchpadKernel() *kernel.Kernel {
	const blockDim = 192
	b := kernel.NewBuilder("bench-smem", blockDim)
	b.Params(2).SetRegs(12).SetSmem(4 * blockDim)
	const (
		rGid, rIn, rOut, rA, rV, rT, rJ, rS = 10, 11, 9, 0, 1, 2, 3, 4
	)
	b.IMad(rGid, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rIn, isa.Reg(rIn), isa.Reg(rT))
	b.IAdd(rOut, isa.Reg(rOut), isa.Reg(rT))
	b.LdG(rA, isa.Reg(rIn), 0)
	b.Shl(rS, isa.Sreg(isa.SrTid), isa.Imm(2))
	b.StS(isa.Reg(rS), 0, isa.Reg(rA))
	b.Bar()
	b.MovI(rJ, 0)
	b.MovF(rV, 0)
	b.Label("loop")
	b.IAdd(rT, isa.Sreg(isa.SrTid), isa.Reg(rJ))
	b.And(rT, isa.Reg(rT), isa.Imm(127)) // stay inside the tile
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.LdS(rA, isa.Reg(rT), 0)
	b.FFma(rV, isa.Reg(rA), isa.Reg(rA), isa.Reg(rV))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(8))
	b.BraIf(0, false, "loop", "done")
	b.Label("done")
	b.Bar()
	b.StS(isa.Reg(rS), 0, isa.Reg(rV))
	b.StG(isa.Reg(rOut), 0, isa.Reg(rV))
	b.Exit()
	return b.MustBuild()
}

// BenchmarkSMTickScratchpad is BenchmarkSMTickManyWarps on the
// scratchpad kernel: the gate that holds the ld.shared/st.shared/
// bar.sync issue path to zero allocations per cycle.
func BenchmarkSMTickScratchpad(b *testing.B) { benchTicks(b, scratchpadKernel(), 1<<14, 48) }
