package workloads

import (
	"gpushare/internal/isa"
	"gpushare/internal/mem"
)

// EpilogueMicro is a microbenchmark for the §VIII early-release
// extension, deliberately NOT part of the paper's 19 applications (it is
// not in the registry): a short shared-register phase followed by a long
// register-dead tail. With early release enabled, a warp's pair lock
// frees at the phase boundary instead of at warp completion, so the
// partner warp overlaps with the entire tail.
var EpilogueMicro = &Spec{
	Name: "epilogue", Suite: "gpushare", Kernel: "epilogue_micro",
	Set: Set1, BlockDim: 256, RegsPerThread: 48,
	// Trips tail loads, Stride bytes apart.
	shape: Shape{Grid: 84, Trips: 48, Stride: 4096},
	build: buildEpilogueMicro,
}

func init() { extras = append(extras, EpilogueMicro) }

const epiSharedIters = 8

func buildEpilogueMicro(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim

	b := s.program(s.Kernel, 1)
	// With 48 registers at t=0.1 the private pool is r0..r3; the shared
	// phase uses r20+ and the tail only r0..r3.
	const (
		rGid, rOut, rAcc = 0, 1, 2
		rShA, rShB, rShI = 20, 24, 28
		rT               = 3
	)
	emitGid(b, rGid)
	b.LdParam(rOut, 0)
	b.MovI(rAcc, 0)
	// Touch the tail's scratch register before any shared register so
	// the unroll pass (first-use renumbering) keeps all four tail
	// registers inside the private pool.
	b.MovI(rT, 0)
	// Phase 1: a short loop through shared registers.
	b.MovI(rShI, 0)
	b.MovI(rShA, 3)
	b.Label("shared")
	b.IMad(rShB, isa.Reg(rShA), isa.Imm(5), isa.Reg(rGid))
	b.And(rShA, isa.Reg(rShB), isa.Imm(0xffff))
	b.IAdd(rAcc, isa.Reg(rAcc), isa.Reg(rShA))
	b.IAdd(rShI, isa.Reg(rShI), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rShI), isa.Imm(epiSharedIters))
	b.BraIf(0, false, "shared", "tail")
	b.Label("tail")
	// Finish every shared-register use here: the walk address is
	// computed through rShB, then rGid is recycled as the tail counter.
	b.Shl(rShB, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rOut, isa.Reg(rOut), isa.Reg(rShB))
	b.MovI(rGid, 0)
	// Phase 2: a long memory-bound tail that provably never touches
	// r4..r47 again — live-range analysis releases the pair lock at its
	// head, letting the partner warp overlap with all of it.
	b.Label("loop")
	b.LdG(rT, isa.Reg(rOut), 0)
	b.IAdd(rAcc, isa.Reg(rAcc), isa.Reg(rT))
	b.Xor(rAcc, isa.Reg(rAcc), isa.Imm(0x5a5a))
	b.IAdd(rOut, isa.Reg(rOut), isa.Imm(int32(sh.Stride)))
	b.IAdd(rGid, isa.Reg(rGid), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rGid), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "loop", "fin")
	b.Label("fin")
	// The final store lands past every thread's read walk (offset 4n),
	// so no thread's tail load can observe another thread's result.
	b.StG(isa.Reg(rOut), int32(4*n), isa.Reg(rAcc))
	b.Exit()
	k := b.MustBuild()

	// The tail walks one buffer (element gid*4 + i*stride) and stores 4n
	// bytes past its final position; size the buffer for the last store.
	init := make([]uint32, 2*n+sh.Trips*sh.Stride/4+64)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 163}
		inst.Launch.Params = []uint32{g.words(init, func(x uint64) uint32 { return uint32(x) & 0xffff })}
	}
	inst.Check = func(m *mem.Global) error {
		for t := 0; t < n; t += 131 {
			var acc, shA uint32 = 0, 3
			for i := 0; i < epiSharedIters; i++ {
				shB := shA*5 + uint32(t)
				shA = shB & 0xffff
				acc += shA
			}
			word := t // the thread's tail walk, in words from the buffer
			for i := 0; i < sh.Trips; i++ {
				acc += init[word]
				acc ^= 0x5a5a
				word += sh.Stride / 4
			}
			if err := expect(m, s.Name, "out", inst.Launch.Params[0], word+n, acc); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}
