package workloads

import (
	"fmt"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// Set-3: benchmarks limited by the maximum resident threads or blocks
// rather than by registers or scratchpad (Table IV). Under resource
// sharing these launch no extra blocks, so every block runs unshared —
// the paper uses them to show OWF degenerates gracefully (Fig. 12).

// Backprop2 is the bpnn_layerforward_CUDA proxy: stage inputs to
// scratchpad, barrier, tree reduction, weighted store. 256 threads and a
// small footprint everywhere: the 1536-thread cap limits it to 6 blocks.
var Backprop2 = register(&Spec{
	Name: "backprop2", Suite: "RODINIA", Kernel: "bpnn_layerforward_CUDA",
	Set: Set3, BlockDim: 256, RegsPerThread: 16, SmemPerBlock: 1088,
	Build: buildBackprop2,
})

func buildBackprop2(scale int) *Instance {
	grid := 84 * scale
	n := grid * 256

	b := kernel.NewBuilder("bpnn_layerforward_CUDA", 256)
	b.Params(2).SetSmem(1088).SetRegs(16)
	const (
		rTid, rGid, rIn, rOut = 10, 11, 12, 13
		rA, rV, rT, rP, rHalf = 0, 1, 2, 3, 4
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	emitGid(b, rGid)
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	b.Shl(rA, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rIn))
	b.LdG(rV, isa.Reg(rA), 0)
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.StS(isa.Reg(rT), 0, isa.Reg(rV))
	b.Bar()
	// Tree reduction over the staged tile (half = 128 .. 1).
	for half := 128; half >= 1; half /= 2 {
		b.MovI(rHalf, int32(half))
		b.Setp(isa.CmpLT, 0, isa.Reg(rTid), isa.Reg(rHalf))
		b.Guard(0, false)
		b.IAdd(rT, isa.Reg(rTid), isa.Reg(rHalf))
		b.Guard(0, false)
		b.Shl(rT, isa.Reg(rT), isa.Imm(2))
		b.Guard(0, false)
		b.LdS(rP, isa.Reg(rT), 0)
		b.Guard(0, false)
		b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
		b.Guard(0, false)
		b.LdS(rV, isa.Reg(rT), 0)
		b.Guard(0, false)
		b.FAdd(rV, isa.Reg(rV), isa.Reg(rP))
		b.Guard(0, false)
		b.StS(isa.Reg(rT), 0, isa.Reg(rV))
		b.Bar()
	}
	// out[gid] = own value * block sum
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.LdS(rV, isa.Reg(rT), 0)
	b.MovI(rT, 0)
	b.LdS(rP, isa.Reg(rT), 0) // block sum at word 0
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.FMul(rV, isa.Reg(rV), isa.Reg(rP))
	b.StG(isa.Reg(rT), 0, isa.Reg(rV))
	b.Exit()
	k := b.MustBuild()

	in := make([]float32, n)
	var inAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(139)
			for i := range in {
				in[i] = rng.nextFloat()
			}
			inAddr = m.Alloc(4 * n)
			outAddr = m.Alloc(4 * n)
			m.WriteFloats(inAddr, in)
			launch.Params = []uint32{inAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			ref := make([]float32, 256)
			for blk := 0; blk < grid; blk += 9 {
				copy(ref, in[blk*256:(blk+1)*256])
				for half := 128; half >= 1; half /= 2 {
					for tid := 0; tid < half; tid++ {
						ref[tid] = ref[tid] + ref[tid+half]
					}
				}
				// The kernel multiplies each thread's post-reduction
				// scratchpad value by the block sum at word 0.
				for tid := 0; tid < 256; tid += 31 {
					want := f32bits(ref[tid] * ref[0])
					gid := blk*256 + tid
					if got := m.Load32(outAddr + uint32(4*gid)); got != want {
						return fmt.Errorf("backprop2 out[%d] = %#x, want %#x", gid, got, want)
					}
				}
			}
			return nil
		},
	}
}

// BFS is the Kernel (breadth-first step) proxy: each thread reads its
// node's edge window and relaxes neighbour distances. 512 threads/block
// and a tiny register footprint: the thread cap limits it to 3 blocks.
var BFS = register(&Spec{
	Name: "BFS", Suite: "GPGPU-Sim", Kernel: "Kernel",
	Set: Set3, BlockDim: 512, RegsPerThread: 12,
	Build: buildBFS,
})

const bfsDegree = 4

func buildBFS(scale int) *Instance {
	grid := 42 * scale
	n := grid * 512

	b := kernel.NewBuilder("Kernel", 512)
	b.Params(3).SetRegs(12)
	const (
		rGid, rEdges, rDist, rOut = 8, 9, 10, 11
		rA, rE, rD, rT, rBest     = 0, 1, 2, 3, 4
	)
	emitGid(b, rGid)
	b.LdParam(rEdges, 0)
	b.LdParam(rDist, 1)
	b.LdParam(rOut, 2)
	// best = dist[gid]
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rDist), isa.Reg(rT))
	b.LdG(rBest, isa.Reg(rA), 0)
	// Relax over the node's edge window.
	b.IMul(rA, isa.Reg(rGid), isa.Imm(bfsDegree*4))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rEdges))
	for e := 0; e < bfsDegree; e++ {
		b.LdG(rE, isa.Reg(rA), int32(4*e)) // neighbour id
		b.Shl(rE, isa.Reg(rE), isa.Imm(2))
		b.IAdd(rE, isa.Reg(rE), isa.Reg(rDist))
		b.LdG(rD, isa.Reg(rE), 0) // neighbour distance
		b.IAdd(rD, isa.Reg(rD), isa.Imm(1))
		b.IMin(rBest, isa.Reg(rBest), isa.Reg(rD))
	}
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rBest))
	b.Exit()
	k := b.MustBuild()

	edges := make([]uint32, n*bfsDegree)
	dist := make([]uint32, n)
	var eAddr, dAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(149)
			for i := range edges {
				edges[i] = rng.nextN(n)
			}
			for i := range dist {
				dist[i] = rng.nextN(64)
			}
			eAddr = m.Alloc(4 * len(edges))
			dAddr = m.Alloc(4 * n)
			outAddr = m.Alloc(4 * n)
			m.WriteWords(eAddr, edges)
			m.WriteWords(dAddr, dist)
			launch.Params = []uint32{eAddr, dAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for t := 0; t < n; t += 97 {
				best := int32(dist[t])
				for e := 0; e < bfsDegree; e++ {
					nb := edges[t*bfsDegree+e]
					if d := int32(dist[nb]) + 1; d < best {
						best = d
					}
				}
				if got := m.Load32(outAddr + uint32(4*t)); got != uint32(best) {
					return fmt.Errorf("BFS out[%d] = %d, want %d", t, got, best)
				}
			}
			return nil
		},
	}
}

// Gaussian is the FAN2 proxy: one Gaussian-elimination row update with
// 64-thread blocks — the 8-blocks-per-SM cap binds first.
var Gaussian = register(&Spec{
	Name: "gaussian", Suite: "RODINIA", Kernel: "Fan2",
	Set: Set3, BlockDim: 64, RegsPerThread: 16,
	Build: buildGaussian,
})

const gaussCols = 16

func buildGaussian(scale int) *Instance {
	grid := 112 * scale
	n := grid * 64

	b := kernel.NewBuilder("Fan2", 64)
	b.Params(4).SetRegs(16)
	const (
		rGid, rMat, rMul, rOut, rPiv = 10, 11, 12, 13, 14
		rA, rM, rV, rT, rJ, rRow     = 0, 1, 2, 3, 4, 5
	)
	emitGid(b, rGid)
	b.LdParam(rMat, 0)
	b.LdParam(rMul, 1)
	b.LdParam(rOut, 2)
	b.LdParam(rPiv, 3)
	// m = multipliers[gid]
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rMul), isa.Reg(rT))
	b.LdG(rM, isa.Reg(rA), 0)
	// The matrix is stored column-major (mat[j*n + gid]) so lanes
	// coalesce: base = mat + gid*4, stride per column = n*4.
	b.IAdd(rRow, isa.Reg(rMat), isa.Reg(rT))
	const rStride = 15
	emitTotalThreads(b, rStride)
	b.Shl(rStride, isa.Reg(rStride), isa.Imm(2))
	b.MovI(rJ, 0)
	b.Label("col")
	b.LdG(rV, isa.Reg(rRow), 0)
	// v = v - m * pivot[j]; the pivot row is a read-only broadcast
	b.Shl(rT, isa.Reg(rJ), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rPiv), isa.Reg(rT))
	b.LdG(rT, isa.Reg(rT), 0)
	b.FMul(rT, isa.Reg(rT), isa.Reg(rM))
	b.FSub(rV, isa.Reg(rV), isa.Reg(rT))
	b.StG(isa.Reg(rRow), 0, isa.Reg(rV))
	b.IAdd(rRow, isa.Reg(rRow), isa.Reg(rStride))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(gaussCols))
	b.BraIf(0, false, "col", "fin")
	b.Label("fin")
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rV))
	b.Exit()
	k := b.MustBuild()

	mat := make([]float32, n*gaussCols)
	mul := make([]float32, n)
	piv := make([]float32, gaussCols)
	var matAddr, mulAddr, outAddr, pivAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(151)
			for i := range mat {
				mat[i] = rng.nextFloat()
			}
			for i := range mul {
				mul[i] = rng.nextFloat()
			}
			for i := range piv {
				piv[i] = rng.nextFloat() + 0.5
			}
			matAddr = m.Alloc(4 * len(mat))
			mulAddr = m.Alloc(4 * n)
			outAddr = m.Alloc(4 * n)
			pivAddr = m.Alloc(4 * gaussCols)
			m.WriteFloats(matAddr, mat)
			m.WriteFloats(mulAddr, mul)
			m.WriteFloats(pivAddr, piv)
			launch.Params = []uint32{matAddr, mulAddr, outAddr, pivAddr}
		},
		Check: func(m *mem.Global) error {
			for t := 0; t < n; t += 61 {
				mv := mul[t]
				var last float32
				for j := 0; j < gaussCols; j++ {
					want := mat[j*n+t] - float32(piv[j]*mv)
					got := mem.F32FromBits(m.Load32(matAddr + uint32(4*(j*n+t))))
					if got != want {
						return fmt.Errorf("gaussian mat[%d][%d] = %v, want %v", t, j, got, want)
					}
					last = want
				}
				if got := mem.F32FromBits(m.Load32(outAddr + uint32(4*t))); got != last {
					return fmt.Errorf("gaussian out[%d] = %v, want %v", t, got, last)
				}
			}
			return nil
		},
	}
}

// NN is the executeSecondLayer proxy: a small dense neural-network layer;
// 128-thread blocks, so the 8-block cap binds.
var NN = register(&Spec{
	Name: "NN", Suite: "GPGPU-Sim", Kernel: "executeSecondLayer",
	Set: Set3, BlockDim: 128, RegsPerThread: 20,
	Build: buildNN,
})

const nnWeights = 32

func buildNN(scale int) *Instance {
	grid := 112 * scale
	n := grid * 128

	b := kernel.NewBuilder("executeSecondLayer", 128)
	b.Params(3).SetRegs(20)
	const (
		rGid, rW, rIn, rOut        = 14, 15, 16, 17
		rA, rWv, rIv, rAcc, rJ, rT = 0, 1, 2, 3, 4, 5
		rStride                    = 18
	)
	emitGid(b, rGid)
	b.LdParam(rW, 0)
	b.LdParam(rIn, 1)
	b.LdParam(rOut, 2)
	// Weights are stored column-major (w[j*threads + gid]) so the loads
	// coalesce; inputs are per-block broadcasts.
	b.Shl(rA, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rW, isa.Reg(rW), isa.Reg(rA))
	emitTotalThreads(b, rStride)
	b.Shl(rStride, isa.Reg(rStride), isa.Imm(2))
	b.Mov(rT, isa.Sreg(isa.SrCtaid))
	b.IMul(rT, isa.Reg(rT), isa.Imm(nnWeights*4))
	b.IAdd(rIn, isa.Reg(rIn), isa.Reg(rT))
	b.MovF(rAcc, 0)
	b.MovI(rJ, 0)
	b.Label("dot")
	b.LdG(rWv, isa.Reg(rW), 0)
	b.IAdd(rW, isa.Reg(rW), isa.Reg(rStride))
	b.Shl(rT, isa.Reg(rJ), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rIn), isa.Reg(rT))
	b.LdG(rIv, isa.Reg(rA), 0)
	b.FFma(rAcc, isa.Reg(rWv), isa.Reg(rIv), isa.Reg(rAcc))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(nnWeights))
	b.BraIf(0, false, "dot", "fin")
	b.Label("fin")
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rAcc))
	b.Exit()
	k := b.MustBuild()

	w := make([]float32, n*nnWeights)
	in := make([]float32, grid*nnWeights)
	var wAddr, inAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(157)
			for i := range w {
				w[i] = rng.nextFloat() - 0.5
			}
			for i := range in {
				in[i] = rng.nextFloat()
			}
			wAddr = m.Alloc(4 * len(w))
			inAddr = m.Alloc(4 * len(in))
			outAddr = m.Alloc(4 * n)
			m.WriteFloats(wAddr, w)
			m.WriteFloats(inAddr, in)
			launch.Params = []uint32{wAddr, inAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for t := 0; t < n; t += 89 {
				blk := t / 128
				var acc float32
				for j := 0; j < nnWeights; j++ {
					acc = float32(w[j*n+t]*in[blk*nnWeights+j]) + acc
				}
				if got := m.Load32(outAddr + uint32(4*t)); got != f32bits(acc) {
					return fmt.Errorf("NN out[%d] = %#x, want %#x", t, got, f32bits(acc))
				}
			}
			return nil
		},
	}
}
