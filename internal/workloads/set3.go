package workloads

import (
	"gpushare/internal/isa"
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
	shape: Shape{Grid: 84},
	build: buildBackprop2,
})

func buildBackprop2(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim

	b := s.program(s.Kernel, 2)
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
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 139}
		inst.Launch.Params = []uint32{g.floats(in, unitFloat), g.output(n)}
	}
	inst.Check = func(m *mem.Global) error {
		var ref [256]float32
		for blk := 0; blk < grid; blk += 9 {
			copy(ref[:], in[blk*256:(blk+1)*256])
			for half := 128; half >= 1; half /= 2 {
				for tid := 0; tid < half; tid++ {
					ref[tid] = ref[tid] + ref[tid+half]
				}
			}
			// The kernel multiplies each thread's post-reduction
			// scratchpad value by the block sum at word 0.
			for tid := 0; tid < 256; tid += 31 {
				want := f32bits(ref[tid] * ref[0])
				if err := expect(m, s.Name, "out", inst.Launch.Params[1], blk*256+tid, want); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst
}

// BFS is the Kernel (breadth-first step) proxy: each thread reads its
// node's edge window and relaxes neighbour distances. 512 threads/block
// and a tiny register footprint: the thread cap limits it to 3 blocks.
var BFS = register(&Spec{
	Name: "BFS", Suite: "GPGPU-Sim", Kernel: "Kernel",
	Set: Set3, BlockDim: 512, RegsPerThread: 12,
	shape: Shape{Grid: 42, Trips: 4}, // Trips edges per node
	build: buildBFS,
})

func buildBFS(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim
	degree := sh.Trips

	b := s.program(s.Kernel, 3)
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
	b.IMul(rA, isa.Reg(rGid), isa.Imm(int32(degree*4)))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rEdges))
	for e := 0; e < degree; e++ {
		b.LdG(rE, isa.Reg(rA), int32(4*e)) // neighbour id
		b.Shl(rE, isa.Reg(rE), isa.Imm(2))
		b.IAdd(rE, isa.Reg(rE), isa.Reg(rDist))
		b.LdG(rD, isa.Reg(rE), 0) // neighbour distance
		b.IAdd(rD, isa.Reg(rD), isa.Imm(1))
		b.IMin(rBest, isa.Reg(rBest), isa.Reg(rD))
	}
	emitStoreOut(b, rT, rOut, rGid, rBest)
	b.Exit()
	k := b.MustBuild()

	edges := make([]uint32, n*degree)
	dist := make([]uint32, n)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 149}
		inst.Launch.Params = []uint32{
			g.words(edges, func(x uint64) uint32 { return below(n, x) }),
			g.words(dist, func(x uint64) uint32 { return below(64, x) }), g.output(n),
		}
	}
	inst.Check = func(m *mem.Global) error {
		for t := 0; t < n; t += 97 {
			best := int32(dist[t])
			for _, nb := range edges[t*degree : (t+1)*degree] {
				if d := int32(dist[nb]) + 1; d < best {
					best = d
				}
			}
			if err := expect(m, s.Name, "out", inst.Launch.Params[2], t, uint32(best)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}

// Gaussian is the FAN2 proxy: one Gaussian-elimination row update with
// 64-thread blocks — the 8-blocks-per-SM cap binds first.
var Gaussian = register(&Spec{
	Name: "gaussian", Suite: "RODINIA", Kernel: "Fan2",
	Set: Set3, BlockDim: 64, RegsPerThread: 16,
	shape: Shape{Grid: 112, Trips: 16}, // Trips matrix columns per row
	build: buildGaussian,
})

func buildGaussian(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim
	cols := sh.Trips

	b := s.program(s.Kernel, 4)
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
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(int32(cols)))
	b.BraIf(0, false, "col", "fin")
	b.Label("fin")
	emitStoreOut(b, rT, rOut, rGid, rV)
	b.Exit()
	k := b.MustBuild()

	mat := make([]float32, n*cols)
	mul := make([]float32, n)
	piv := make([]float32, cols)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 151}
		inst.Launch.Params = []uint32{
			g.floats(mat, unitFloat), g.floats(mul, unitFloat), g.output(n),
			g.floats(piv, func(x uint64) float32 { return unitFloat(x) + 0.5 }),
		}
	}
	inst.Check = func(m *mem.Global) error {
		p := inst.Launch.Params
		for t := 0; t < n; t += 61 {
			var last uint32
			for j := 0; j < cols; j++ {
				last = f32bits(mat[j*n+t] - float32(piv[j]*mul[t]))
				if err := expect(m, s.Name, "mat", p[0], j*n+t, last); err != nil {
					return err
				}
			}
			if err := expect(m, s.Name, "out", p[2], t, last); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}

// NN is the executeSecondLayer proxy: a small dense neural-network layer;
// 128-thread blocks, so the 8-block cap binds.
var NN = register(&Spec{
	Name: "NN", Suite: "GPGPU-Sim", Kernel: "executeSecondLayer",
	Set: Set3, BlockDim: 128, RegsPerThread: 20,
	shape: Shape{Grid: 112, Trips: 32}, // Trips weights per neuron
	build: buildNN,
})

func buildNN(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim
	weights := sh.Trips

	b := s.program(s.Kernel, 3)
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
	b.IMul(rT, isa.Reg(rT), isa.Imm(int32(weights*4)))
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
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(int32(weights)))
	b.BraIf(0, false, "dot", "fin")
	b.Label("fin")
	emitStoreOut(b, rT, rOut, rGid, rAcc)
	b.Exit()
	k := b.MustBuild()

	w := make([]float32, n*weights)
	in := make([]float32, grid*weights)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 157}
		inst.Launch.Params = []uint32{
			g.floats(w, func(x uint64) float32 { return unitFloat(x) - 0.5 }),
			g.floats(in, unitFloat), g.output(n),
		}
	}
	inst.Check = func(m *mem.Global) error {
		for t := 0; t < n; t += 89 {
			blk := t / s.BlockDim
			var acc float32
			for j := 0; j < weights; j++ {
				acc = float32(w[j*n+t]*in[blk*weights+j]) + acc
			}
			if err := expect(m, s.Name, "out", inst.Launch.Params[2], t, f32bits(acc)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}
