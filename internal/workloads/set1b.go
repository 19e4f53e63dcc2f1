package workloads

import (
	"fmt"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// MUM is the mummergpuKernel proxy: a pointer chase through a suffix-
// tree-like node array. Each warp's queries walk one 4KB subtree region
// with heavily uncoalesced lane addresses, so a warp's region becomes
// L1-resident only when the scheduler runs few warps greedily — LRR
// round-robin thrashes it, which is why the paper's most memory-bound
// Set-1 application gains most from OWF + dynamic warp execution
// (+24.1%). 256 threads/block, 28 registers/thread.
var MUM = register(&Spec{
	Name: "MUM", Suite: "RODINIA", Kernel: "mummergpuKernel",
	Set: Set1, BlockDim: 256, RegsPerThread: 28,
	Build: buildMUM,
})

const (
	mumRegion = 1024    // entries per warp subtree region (4KB)
	mumNodes  = 1 << 18 // total node entries (1MB)
	mumSteps  = 10
)

func buildMUM(scale int) *Instance {
	grid := 252 * scale
	threads := grid * 256

	b := kernel.NewBuilder("mummergpuKernel", 256)
	b.Params(2).SetRegs(28)
	const (
		rGid, rNodes, rOut     = 22, 23, 24
		rCur, rSum, rI, rA, rT = 0, 1, 2, 3, 4
	)
	emitGid(b, rGid)
	b.LdParam(rNodes, 0)
	b.LdParam(rOut, 1)
	// Region base: each warp owns a 4KB slice of the node pool.
	const rRegion = 5
	b.Shr(rRegion, isa.Reg(rGid), isa.Imm(5))
	b.IMul(rRegion, isa.Reg(rRegion), isa.Imm(-1640531527)) // scatter warp regions
	b.And(rRegion, isa.Reg(rRegion), isa.Imm(mumNodes/mumRegion-1))
	b.IMul(rRegion, isa.Reg(rRegion), isa.Imm(mumRegion))
	// cur = lane-scattered offset within the region
	b.IMul(rCur, isa.Reg(rGid), isa.Imm(-1640531527))
	b.And(rCur, isa.Reg(rCur), isa.Imm(mumRegion-1))
	b.MovI(rSum, 0)
	b.MovI(rI, 0)
	b.Label("chase")
	b.IAdd(rA, isa.Reg(rCur), isa.Reg(rRegion))
	b.Shl(rA, isa.Reg(rA), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rNodes))
	b.LdG(rCur, isa.Reg(rA), 0)
	b.IAdd(rSum, isa.Reg(rSum), isa.Reg(rCur))
	b.And(rCur, isa.Reg(rCur), isa.Imm(mumRegion-1))
	b.Shr(rT, isa.Reg(rSum), isa.Imm(5))
	b.Xor(rSum, isa.Reg(rSum), isa.Reg(rT))
	b.IAdd(rI, isa.Reg(rI), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Imm(mumSteps))
	b.BraIf(0, false, "chase", "done")
	b.Label("done")
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rSum))
	b.Exit()
	k := b.MustBuild()

	nodes := make([]uint32, mumNodes)
	var nodesAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(41)
			for i := range nodes {
				nodes[i] = uint32(rng.next())
			}
			nodesAddr = m.Alloc(4 * mumNodes)
			outAddr = m.Alloc(4 * threads)
			m.WriteWords(nodesAddr, nodes)
			launch.Params = []uint32{nodesAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for t := 0; t < threads; t += 199 {
				region := (((uint32(t) >> 5) * 2654435769) & (mumNodes/mumRegion - 1)) * mumRegion
				cur := (uint32(t) * 2654435769) & (mumRegion - 1)
				var sum uint32
				for i := 0; i < mumSteps; i++ {
					cur = nodes[region+cur]
					sum += cur
					sum ^= sum >> 5
					cur &= mumRegion - 1
				}
				if got := m.Load32(outAddr + uint32(4*t)); got != sum {
					return fmt.Errorf("MUM out[%d] = %#x, want %#x", t, got, sum)
				}
			}
			return nil
		},
	}
}

// MRIQ is the ComputeQ_GPU proxy: each thread accumulates phase
// contributions from a per-block k-space table that is re-read twice.
// Five resident blocks' tables (15KB) fit the 16KB L1; the sixth block
// launched under sharing overflows it, reproducing the paper's slight
// mri-q slowdown. 256 threads/block, 24 registers/thread.
var MRIQ = register(&Spec{
	Name: "mri-q", Suite: "PARBOIL", Kernel: "ComputeQ_GPU",
	Set: Set1, BlockDim: 256, RegsPerThread: 24,
	Build: buildMRIQ,
})

const (
	mriqTableWords = 704 // 2816B per block: 5 tables fit the 128-line L1, 6 do not
	mriqIters      = 88  // stride-8 sweep touches every line of the table once
	mriqStride     = 8
)

func buildMRIQ(scale int) *Instance {
	grid := 252 * scale
	threads := grid * 256
	tables := 84 + 14 // tables cycle per ctaid so co-resident blocks differ

	b := kernel.NewBuilder("ComputeQ_GPU", 256)
	b.Params(3).SetRegs(24)
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
	b.IMad(rTab, isa.Reg(rT), isa.Imm(mriqTableWords*4), isa.Reg(rTab))
	b.MovF(rAcc, 0)
	b.MovI(rJ, 0)
	b.Label("iter")
	// k = table[(j*stride) mod tableWords] — a strided sweep that still
	// touches every cache line of the 3KB table.
	b.IMul(rA, isa.Reg(rJ), isa.Imm(mriqStride))
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
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(mriqIters))
	b.BraIf(0, false, "iter", "fin")
	b.Label("fin")
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rAcc))
	b.Exit()
	k := b.MustBuild()

	table := make([]float32, tables*mriqTableWords)
	xs := make([]float32, threads)
	var tabAddr, outAddr, xAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(53)
			for i := range table {
				table[i] = rng.nextFloat() * 2
			}
			for i := range xs {
				xs[i] = rng.nextFloat()
			}
			tabAddr = m.Alloc(4 * len(table))
			outAddr = m.Alloc(4 * threads)
			xAddr = m.Alloc(4 * threads)
			m.WriteFloats(tabAddr, table)
			m.WriteFloats(xAddr, xs)
			launch.Params = []uint32{tabAddr, outAddr, xAddr}
		},
		// Spot-checks one thread in 173, bit for bit: the host replays
		// the 88 iterations with the executor's roundings — FMUL, FSIN
		// (sinf32, the libm definition), FFMA as float32(ph*0.5) + k,
		// then the FADD — so every FSIN the SFU kernel decided is
		// compared with the definition end to end.
		Check: func(m *mem.Global) error {
			for t := 0; t < threads; t += 173 {
				tab := table[(t/256)%tables*mriqTableWords:]
				x := xs[t]
				var acc float32
				for j := 0; j < mriqIters; j++ {
					k := tab[j*mriqStride]
					acc += float32(sinf32(k*x)*0.5) + k
				}
				if got := m.Load32(outAddr + uint32(4*t)); got != f32bits(acc) {
					return fmt.Errorf("mri-q out[%d] = %#x, want %#x", t, got, f32bits(acc))
				}
			}
			return nil
		},
	}
}

// LIB is the Pathcalc_Portfolio_KernelGPU proxy: each block makes four
// passes over a 12KB per-block path buffer. One SM's resident blocks
// overflow its L1 but the whole GPU's baseline working set (4 blocks/SM
// x 14 SMs x 12KB = 672KB) fits the 768KB L2 — doubling the blocks via
// sharing thrashes the L2, which is why the paper sees only +0.84%.
// 192 threads/block, 36 registers/thread. Register numbering is already
// first-use ordered, so the unroll pass is a no-op (as §VI-B observes).
var LIB = register(&Spec{
	Name: "LIB", Suite: "RODINIA", Kernel: "Pathcalc_Portfolio_KernelGPU",
	Set: Set1, BlockDim: 192, RegsPerThread: 36,
	Build: buildLIB,
})

const (
	libWordsPerBlock = 3072 // 12KB
	libPasses        = 2
)

func buildLIB(scale int) *Instance {
	grid := 336 * scale

	b := kernel.NewBuilder("Pathcalc_Portfolio_KernelGPU", 192)
	b.Params(2).SetRegs(36)
	const (
		rTid, rBase, rOut, rAcc, rP = 0, 1, 2, 3, 4
		rJ, rA, rV, rT, rGid        = 5, 6, 7, 8, 9
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	b.LdParam(rBase, 0)
	b.LdParam(rOut, 1)
	// base += ctaid * wordsPerBlock * 4
	b.Mov(rT, isa.Sreg(isa.SrCtaid))
	b.IMad(rBase, isa.Reg(rT), isa.Imm(libWordsPerBlock*4), isa.Reg(rBase))
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
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(192))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(libWordsPerBlock))
	b.BraIf(0, false, "elem", "endpass")
	b.Label("endpass")
	b.IAdd(rP, isa.Reg(rP), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rP), isa.Imm(libPasses))
	b.BraIf(0, false, "pass", "fin")
	b.Label("fin")
	emitGid(b, rGid)
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rAcc))
	b.Exit()
	k := b.MustBuild()

	paths := make([]float32, grid*libWordsPerBlock)
	var pathAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(61)
			for i := range paths {
				paths[i] = rng.nextFloat()
			}
			pathAddr = m.Alloc(4 * len(paths))
			outAddr = m.Alloc(4 * grid * 192)
			m.WriteFloats(pathAddr, paths)
			launch.Params = []uint32{pathAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for blk := 0; blk < grid; blk += 17 {
				for tid := 0; tid < 192; tid += 53 {
					var acc float32
					for p := 0; p < libPasses; p++ {
						for j := tid; j < libWordsPerBlock; j += 192 {
							v := paths[blk*libWordsPerBlock+j]
							acc = float32(v*1.0009) + acc
							acc = float32(acc * 0.9999)
						}
					}
					gid := blk*192 + tid
					if got := m.Load32(outAddr + uint32(4*gid)); got != f32bits(acc) {
						return fmt.Errorf("LIB out[%d] = %#x, want %#x", gid, got, f32bits(acc))
					}
				}
			}
			return nil
		},
	}
}
