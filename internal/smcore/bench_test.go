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
	sm, err := NewMulti(0, &cfg, []TenantLaunch{{Launch: l, Occ: occ}}, ms)
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

// benchBlockedTicks fills every block slot of one SM and ticks it for
// b.N cycles with the memory system frozen (never ticked, so no reply
// ever arrives): after warm-up cycles the SM is in whatever blocked
// steady state the kernel and configuration produce, and every
// iteration is one such cycle.
func benchBlockedTicks(b *testing.B, cfg config.Config, k *kernel.Kernel, warm int64) *SM {
	ms := mem.NewSystem(&cfg)
	buf := ms.Global.Alloc(1 << 22)
	l := &kernel.Launch{Kernel: k, GridDim: 1 << 10, Params: []uint32{buf}}
	occ := core.ComputeOccupancy(&cfg, k)
	sm, err := NewMulti(0, &cfg, []TenantLaunch{{Launch: l, Occ: occ}}, ms)
	if err != nil {
		b.Fatal(err)
	}
	for slot := 0; slot < occ.Max; slot++ {
		if err := sm.LaunchBlock(slot, slot); err != nil {
			b.Fatal(err)
		}
	}
	var now int64
	for ; now < warm; now++ {
		if err := tickSM(sm, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tickSM(sm, now); err != nil {
			b.Fatal(err)
		}
		now++
	}
	b.StopTimer()
	return sm
}

// BenchmarkSMTickStalled is the census case: 48 warps, every one of
// them blocked behind a full MSHR file. Each warp's first instruction
// is a global load touching 32 distinct lines; the first to issue takes
// all 32 MSHRs and then waits on the scoreboard for data that never
// comes, and the rest can never issue their load. No cycle issues, and
// no warp's class is open, so the census charges each scheduler's slot
// by popcount without ranking or asking anyone.
func BenchmarkSMTickStalled(b *testing.B) {
	kb := kernel.NewBuilder("stalled", 192)
	kb.Params(1).SetRegs(12)
	kb.IMad(0, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	kb.Shl(0, isa.Reg(0), isa.Imm(7)) // one 128-byte line per thread
	kb.LdParam(1, 0)
	kb.IAdd(0, isa.Reg(0), isa.Reg(1))
	kb.LdG(2, isa.Reg(0), 0)
	kb.IAdd(2, isa.Reg(2), isa.Imm(1))
	kb.Exit()
	sm := benchBlockedTicks(b, config.Default(), kb.MustBuild(), 256)
	if sm.Stats.BlockMemPipe == 0 || sm.mshr.Len() < sm.cfg.L1MSHRs {
		b.Fatalf("SM is not stalled on the MSHR file: %d lines outstanding, %d mem-pipe blocks", sm.mshr.Len(), sm.Stats.BlockMemPipe)
	}
}

// BenchmarkSMTickLockWait is three register-sharing pairs with the
// partner holding the lock: every warp of each pair's owner block takes
// its lock at the first shared-pool access and never gives it back —
// seven of the eight park at a barrier the eighth never reaches, and
// that one spins on a dependent ALU chain — while the other block's
// warps all wait on the Fig. 3 lock. The three spinning warps land on
// one scheduler, whose walk asks a spinner when its scoreboard is clear
// and passes the lock-waiting warps by popcount once each has been seen
// failing the lock at the current lock generation; the other scheduler
// ranks only lock-waiting warps, charged by popcount every cycle.
func BenchmarkSMTickLockWait(b *testing.B) {
	kb := kernel.NewBuilder("lockwait", 256)
	kb.SetRegs(36)
	kb.MovI(30, 0) // shared pool at t=0.1: takes the pair lock for good
	kb.Setp(isa.CmpGE, 0, isa.Sreg(isa.SrTid), isa.Imm(32))
	kb.BraIf(0, false, "park", "end") // warp-uniform: whole warps go one way
	kb.Label("spin")
	kb.IAdd(30, isa.Reg(30), isa.Imm(1))
	kb.Bra("spin")
	kb.Label("park")
	kb.Bar()
	kb.Label("end")
	kb.Exit()
	cfg := config.Default()
	cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
	sm := benchBlockedTicks(b, cfg, kb.MustBuild(), 256)
	if occ := sm.tens[0].occ; occ.Pairs != 3 {
		b.Fatalf("want 3 register-sharing pairs, got %+v", occ)
	}
	if sm.Stats.BlockLockWait < 12*int64(b.N) || sm.Stats.WarpInstrs < int64(b.N)/4 {
		b.Fatalf("SM is not issuing past lock-waiting warps: %d lock waits, %d instrs in %d cycles",
			sm.Stats.BlockLockWait, sm.Stats.WarpInstrs, b.N)
	}
}
