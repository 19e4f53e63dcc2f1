package workloads

import (
	"gpushare/internal/isa"
	"gpushare/internal/mem"
)

// MUM is the mummergpuKernel proxy: a pointer chase through a suffix-
// tree-like node pool of WorkingSet bytes. Each warp's queries walk one
// subtree region (Stride bytes of the pool) for Trips steps with
// heavily uncoalesced lane addresses, so a warp's region becomes
// L1-resident only when the scheduler runs few warps greedily — LRR
// round-robin thrashes it, which is why the paper's most memory-bound
// Set-1 application gains most from OWF + dynamic warp execution
// (+24.1%). 256 threads/block, 28 registers/thread.
var MUM = register(&Spec{
	Name: "MUM", Suite: "RODINIA", Kernel: "mummergpuKernel",
	Set: Set1, BlockDim: 256, RegsPerThread: 28,
	shape: Shape{Grid: 252, Trips: 10, WorkingSet: 1 << 20, Stride: 4096},
	build: buildMUM,
})

func buildMUM(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	threads := grid * s.BlockDim
	nodes := make([]uint32, sh.WorkingSet/4)
	region := sh.Stride / 4 // node entries per warp region

	b := s.program(s.Kernel, 2)
	const (
		rGid, rNodes, rOut     = 22, 23, 24
		rCur, rSum, rI, rA, rT = 0, 1, 2, 3, 4
	)
	emitGid(b, rGid)
	b.LdParam(rNodes, 0)
	b.LdParam(rOut, 1)
	// Region base: each warp owns one region of the node pool.
	const rRegion = 5
	b.Shr(rRegion, isa.Reg(rGid), isa.Imm(5))
	b.IMul(rRegion, isa.Reg(rRegion), isa.Imm(-1640531527)) // scatter warp regions
	b.And(rRegion, isa.Reg(rRegion), isa.Imm(int32(len(nodes)/region-1)))
	b.IMul(rRegion, isa.Reg(rRegion), isa.Imm(int32(region)))
	// cur = lane-scattered offset within the region
	b.IMul(rCur, isa.Reg(rGid), isa.Imm(-1640531527))
	b.And(rCur, isa.Reg(rCur), isa.Imm(int32(region-1)))
	b.MovI(rSum, 0)
	b.MovI(rI, 0)
	b.Label("chase")
	b.IAdd(rA, isa.Reg(rCur), isa.Reg(rRegion))
	b.Shl(rA, isa.Reg(rA), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rNodes))
	b.LdG(rCur, isa.Reg(rA), 0)
	b.IAdd(rSum, isa.Reg(rSum), isa.Reg(rCur))
	b.And(rCur, isa.Reg(rCur), isa.Imm(int32(region-1)))
	b.Shr(rT, isa.Reg(rSum), isa.Imm(5))
	b.Xor(rSum, isa.Reg(rSum), isa.Reg(rT))
	b.IAdd(rI, isa.Reg(rI), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "chase", "done")
	b.Label("done")
	emitStoreOut(b, rT, rOut, rGid, rSum)
	b.Exit()
	k := b.MustBuild()

	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 41}
		inst.Launch.Params = []uint32{g.words(nodes, anyWord), g.output(threads)}
	}
	inst.Check = func(m *mem.Global) error {
		regions, mask := uint32(len(nodes)/region), uint32(region-1)
		for t := 0; t < threads; t += 199 {
			base := (((uint32(t) >> 5) * 2654435769) & (regions - 1)) * uint32(region)
			cur := (uint32(t) * 2654435769) & mask
			var sum uint32
			for i := 0; i < sh.Trips; i++ {
				cur = nodes[base+cur]
				sum += cur
				sum ^= sum >> 5
				cur &= mask
			}
			if err := expect(m, s.Name, "out", inst.Launch.Params[1], t, sum); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}

// MRIQ is the ComputeQ_GPU proxy: each thread accumulates phase
// contributions from a per-block k-space table that every warp of the
// block sweeps. Five resident blocks' tables fit the 128-line L1; the
// sixth block launched under sharing overflows it, reproducing the
// paper's slight mri-q slowdown. 256 threads/block, 24 registers/thread.
var MRIQ = register(&Spec{
	Name: "mri-q", Suite: "PARBOIL", Kernel: "ComputeQ_GPU",
	Set: Set1, BlockDim: 256, RegsPerThread: 24,
	// Trips x Stride spans the table: the sweep touches each of its
	// cache lines once.
	shape: Shape{Grid: 252, Trips: 88, WorkingSet: 2816, Stride: 32},
	build: buildMRIQ,
})

func buildMRIQ(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	threads := grid * s.BlockDim
	tables := 84 + 14 // tables cycle per ctaid so co-resident blocks differ
	tableWords, stride := sh.WorkingSet/4, sh.Stride/4

	b := s.program(s.Kernel, 3)
	const (
		rGid, rTab, rOut, rX          = 18, 19, 20, 21
		rAcc, rJ, rK, rA, rPh, rT, rP = 0, 1, 2, 3, 4, 5, 6
	)
	emitGid(b, rGid)
	b.LdParam(rTab, 0)
	b.LdParam(rOut, 1)
	// x = xs[gid]
	b.LdParam(rX, 2)
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rX, isa.Reg(rX), isa.Reg(rT))
	b.LdG(rX, isa.Reg(rX), 0)
	// table base for this block: tab + (ctaid % tables)*tableWords*4
	b.Mov(rT, isa.Sreg(isa.SrCtaid))
	b.MovI(rA, int32(tables))
	b.Label("modloop") // t -= tables while t >= tables (cheap modulus)
	b.Setp(isa.CmpGE, 0, isa.Reg(rT), isa.Reg(rA))
	b.Guard(0, false)
	b.ISub(rT, isa.Reg(rT), isa.Reg(rA))
	b.Guard(0, false)
	b.Bra("modloop")
	b.IMad(rTab, isa.Reg(rT), isa.Imm(int32(sh.WorkingSet)), isa.Reg(rTab))
	b.MovF(rAcc, 0)
	b.MovI(rJ, 0)
	b.Label("iter")
	// k = table[j*stride] — a strided sweep that touches every cache
	// line of the table.
	b.IMul(rA, isa.Reg(rJ), isa.Imm(int32(stride)))
	b.Shl(rA, isa.Reg(rA), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rTab))
	b.LdG(rK, isa.Reg(rA), 0)
	// phase = sin(k*x)*0.5 + k  (one SFU op per iteration, like the
	// sin/cos pairs of the real mri-q inner loop)
	b.FMul(rPh, isa.Reg(rK), isa.Reg(rX))
	b.FSin(rPh, isa.Reg(rPh))
	b.FFma(rP, isa.Reg(rPh), isa.ImmF(0.5), isa.Reg(rK))
	b.FAdd(rAcc, isa.Reg(rAcc), isa.Reg(rP))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "iter", "fin")
	b.Label("fin")
	emitStoreOut(b, rT, rOut, rGid, rAcc)
	b.Exit()
	k := b.MustBuild()

	table := make([]float32, tables*tableWords)
	xs := make([]float32, threads)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 53}
		inst.Launch.Params = []uint32{
			g.floats(table, func(x uint64) float32 { return unitFloat(x) * 2 }),
			g.output(threads), g.floats(xs, unitFloat),
		}
	}
	// Spot-checks one thread in 173, bit for bit: the host replays the
	// sweep with the executor's roundings — FMUL, FSIN (sinf32, the libm
	// definition), FFMA as float32(ph*0.5) + k, then the FADD — so every
	// FSIN the SFU kernel decided is compared with the definition end
	// to end.
	inst.Check = func(m *mem.Global) error {
		for t := 0; t < threads; t += 173 {
			tab := table[(t/s.BlockDim)%tables*tableWords:]
			x := xs[t]
			var acc float32
			for j := 0; j < sh.Trips; j++ {
				k := tab[j*stride]
				acc += float32(sinf32(k*x)*0.5) + k
			}
			if err := expect(m, s.Name, "out", inst.Launch.Params[1], t, f32bits(acc)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}

// LIB is the Pathcalc_Portfolio_KernelGPU proxy: each block makes Trips
// passes over its own path buffer of WorkingSet bytes. One SM's resident
// blocks overflow its L1 but the whole GPU's baseline working set (4
// blocks/SM x 14 SMs x WorkingSet) fits the 768KB L2 — doubling the
// blocks via sharing thrashes the L2, which is why the paper sees only
// +0.84%.
// 192 threads/block, 36 registers/thread. Register numbering is already
// first-use ordered, so the unroll pass is a no-op (as §VI-B observes).
var LIB = register(&Spec{
	Name: "LIB", Suite: "RODINIA", Kernel: "Pathcalc_Portfolio_KernelGPU",
	Set: Set1, BlockDim: 192, RegsPerThread: 36,
	shape: Shape{Grid: 336, Trips: 2, WorkingSet: 12 << 10},
	build: buildLIB,
})

func buildLIB(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	words := sh.WorkingSet / 4 // path words per block

	b := s.program(s.Kernel, 2)
	const (
		rTid, rBase, rOut, rAcc, rP = 0, 1, 2, 3, 4
		rJ, rA, rV, rT, rGid        = 5, 6, 7, 8, 9
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	b.LdParam(rBase, 0)
	b.LdParam(rOut, 1)
	// base += ctaid * wordsPerBlock * 4
	b.Mov(rT, isa.Sreg(isa.SrCtaid))
	b.IMad(rBase, isa.Reg(rT), isa.Imm(int32(sh.WorkingSet)), isa.Reg(rBase))
	b.MovF(rAcc, 0)
	b.MovI(rP, 0)
	b.Label("pass")
	b.Mov(rJ, isa.Reg(rTid))
	b.Label("elem")
	b.Shl(rA, isa.Reg(rJ), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rBase))
	b.LdG(rV, isa.Reg(rA), 0)
	b.FFma(rAcc, isa.Reg(rV), isa.ImmF(1.0009), isa.Reg(rAcc))
	b.FMul(rAcc, isa.Reg(rAcc), isa.ImmF(0.9999))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(int32(s.BlockDim)))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(int32(words)))
	b.BraIf(0, false, "elem", "endpass")
	b.Label("endpass")
	b.IAdd(rP, isa.Reg(rP), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rP), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "pass", "fin")
	b.Label("fin")
	emitGid(b, rGid)
	emitStoreOut(b, rT, rOut, rGid, rAcc)
	b.Exit()
	k := b.MustBuild()

	paths := make([]float32, grid*words)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 61}
		inst.Launch.Params = []uint32{g.floats(paths, unitFloat), g.output(grid * s.BlockDim)}
	}
	inst.Check = func(m *mem.Global) error {
		for blk := 0; blk < grid; blk += 17 {
			for tid := 0; tid < s.BlockDim; tid += 53 {
				var acc float32
				for p := 0; p < sh.Trips; p++ {
					for j := tid; j < words; j += s.BlockDim {
						v := paths[blk*words+j]
						acc = float32(v*1.0009) + acc
						acc = float32(acc * 0.9999)
					}
				}
				gid := blk*s.BlockDim + tid
				if err := expect(m, s.Name, "out", inst.Launch.Params[1], gid, f32bits(acc)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst
}
