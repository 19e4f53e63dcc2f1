package workloads

import (
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// Set-1: benchmarks whose resident thread blocks are limited by registers
// (Table II of the paper). Block sizes and registers per thread match the
// table exactly; the kernels are proxies tuned to the execution character
// §VI-B reports (hotspot/stencil compute-bound with latency to hide,
// MUM/b+tree divergent and memory-latency-bound, mri-q L1-sensitive, LIB
// L2-sensitive, backprop/sgemm streaming with moderate gains).

// emitGid emits rGid = ctaid*ntid + tid.
func emitGid(b *kernel.Builder, rGid int) {
	b.IMad(rGid, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
}

// emitStoreOut emits out[gid] = v for the word array at rOut, building
// the address in rT.
func emitStoreOut(b *kernel.Builder, rT, rOut, rGid, rV int) {
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rV))
}

// emitTotalThreads emits rTot = nctaid*ntid.
func emitTotalThreads(b *kernel.Builder, rTot int) {
	b.IMul(rTot, isa.Sreg(isa.SrNctaid), isa.Sreg(isa.SrNtid))
}

// Backprop is the bpnn_adjust_weights_cuda proxy: a streaming weight
// update, w[i] += 0.3*delta[i] + 0.3*oldw[i], over Trips grid-strided
// elements per thread. 256 threads/block, 24 registers/thread.
var Backprop = register(&Spec{
	Name: "backprop", Suite: "GPGPU-Sim", Kernel: "bpnn_adjust_weights_cuda",
	Set: Set1, BlockDim: 256, RegsPerThread: 24,
	shape: Shape{Grid: 252, Trips: 2},
	build: buildBackprop,
})

func buildBackprop(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim * sh.Trips

	b := s.program(s.Kernel, 3)
	// Deliberately "declaration-order" register numbering as emitted by
	// the CUDA toolchain (Fig. 7a): the early address registers sit high
	// in the file, so under register sharing a non-owner warp touches
	// the shared pool almost immediately — until the unroll pass
	// renumbers by first use.
	const (
		rGid, rTot, rW, rOW, rD, rOff, rStride = 20, 21, 22, 23, 19, 18, 17
		rAW, rVW, rAD, rVD, rAO, rVO, rT1, rT2 = 0, 1, 2, 3, 4, 5, 6, 7
	)
	emitGid(b, rGid)
	emitTotalThreads(b, rTot)
	b.LdParam(rW, 0)
	b.LdParam(rOW, 1)
	b.LdParam(rD, 2)
	b.Shl(rOff, isa.Reg(rGid), isa.Imm(2))
	b.Shl(rStride, isa.Reg(rTot), isa.Imm(2))
	for e := 0; e < sh.Trips; e++ {
		b.IAdd(rAW, isa.Reg(rW), isa.Reg(rOff))
		b.IAdd(rAD, isa.Reg(rD), isa.Reg(rOff))
		b.IAdd(rAO, isa.Reg(rOW), isa.Reg(rOff))
		b.LdG(rVW, isa.Reg(rAW), 0)
		b.LdG(rVD, isa.Reg(rAD), 0)
		b.LdG(rVO, isa.Reg(rAO), 0)
		b.FFma(rT1, isa.Reg(rVD), isa.ImmF(0.3), isa.Reg(rVW))
		b.FFma(rT2, isa.Reg(rVO), isa.ImmF(0.3), isa.Reg(rT1))
		b.StG(isa.Reg(rAW), 0, isa.Reg(rT2))
		b.FMul(rT1, isa.Reg(rVD), isa.ImmF(0.3))
		b.StG(isa.Reg(rAO), 0, isa.Reg(rT1))
		if e != sh.Trips-1 {
			b.IAdd(rOff, isa.Reg(rOff), isa.Reg(rStride))
		}
	}
	b.Exit()
	k := b.MustBuild()

	w := make([]float32, n)
	ow := make([]float32, n)
	d := make([]float32, n)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 11}
		for i := range w { // the three inputs draw interleaved
			w[i], ow[i], d[i] = unitFloat(g.rng.next()), unitFloat(g.rng.next()), unitFloat(g.rng.next())-0.5
		}
		inst.Launch.Params = []uint32{g.floats(w, nil), g.floats(ow, nil), g.floats(d, nil)}
	}
	inst.Check = func(m *mem.Global) error {
		p := inst.Launch.Params
		for i := 0; i < n; i++ {
			t1 := float32(d[i]*0.3) + w[i]
			if err := expect(m, s.Name, "w", p[0], i, f32bits(float32(ow[i]*0.3)+t1)); err != nil {
				return err
			}
			if err := expect(m, s.Name, "oldw", p[1], i, f32bits(d[i]*0.3)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}

// BTree is the findRangeK proxy: every thread walks an implicit heap
// down from a shallow start, one node load per level for Trips levels,
// branching on key comparisons, with a guarded early exit that diverges
// the warp. 508 threads/block (16 warps, the last partial), 24
// registers/thread. Lower tree levels produce heavily uncoalesced
// loads, making the walk memory-latency-bound.
var BTree = register(&Spec{
	Name: "b+tree", Suite: "GPGPU-Sim", Kernel: "findRangeK",
	Set: Set1, BlockDim: 508, RegsPerThread: 24,
	// The node pool is large enough that deep levels miss the L2.
	shape: Shape{Grid: 126, Trips: 10, WorkingSet: 512 << 10},
	build: buildBTree,
})

const btreeStarts = 128 // scattered shallow starting positions

func buildBTree(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	threads := grid * s.BlockDim

	b := s.program(s.Kernel, 3)
	const (
		rGid, rTree, rOut, rQ = 18, 19, 20, 21
		rPos, rL, rKey, rA    = 0, 1, 2, 3
		rBit, rT              = 4, 5
	)
	// The prologue runs in two registers (rGid holds gid*4, rQ the
	// query) so that under register sharing a non-owner warp issues its
	// query load before first touching the shared pool — the situation
	// §IV-C's dynamic warp execution gates.
	emitGid(b, rGid)
	b.Shl(rGid, isa.Reg(rGid), isa.Imm(2)) // rGid = gid*4 from here on
	b.LdParam(rQ, 2)
	b.IAdd(rQ, isa.Reg(rQ), isa.Reg(rGid))
	b.LdG(rQ, isa.Reg(rQ), 0)
	b.LdParam(rTree, 0)
	b.LdParam(rOut, 1)
	// pos = hash(warp) mod starts: a warp's lanes walk one subtree, as
	// findRangeK's sorted range queries do. (gid*4)>>7 == gid>>5.
	b.Shr(rPos, isa.Reg(rGid), isa.Imm(7))
	b.IMul(rPos, isa.Reg(rPos), isa.Imm(-1640531527))
	b.And(rPos, isa.Reg(rPos), isa.Imm(btreeStarts-1))
	b.MovI(rL, 0)
	b.Label("level")
	// key = tree[pos]
	b.Shl(rA, isa.Reg(rPos), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rTree))
	b.LdG(rKey, isa.Reg(rA), 0)
	// early out for lanes whose low key bits match the query (diverges)
	b.Xor(rT, isa.Reg(rKey), isa.Reg(rQ))
	b.And(rT, isa.Reg(rT), isa.Imm(7))
	b.Setp(isa.CmpEQ, 1, isa.Reg(rT), isa.Imm(0))
	b.Guard(1, false)
	b.Bra("found")
	// bit = q >= key (unsigned)
	b.Setp(isa.CmpGEU, 0, isa.Reg(rQ), isa.Reg(rKey))
	b.Selp(rBit, isa.Imm(1), isa.Imm(0), 0)
	// pos = 2*pos + 1 + bit
	b.IMad(rPos, isa.Reg(rPos), isa.Imm(2), isa.Reg(rBit))
	b.IAdd(rPos, isa.Reg(rPos), isa.Imm(1))
	b.IAdd(rL, isa.Reg(rL), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rL), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "level", "found")
	b.Label("found")
	// out[gid] = pos (rGid already holds gid*4)
	b.IAdd(rA, isa.Reg(rOut), isa.Reg(rGid))
	b.StG(isa.Reg(rA), 0, isa.Reg(rPos))
	b.Exit()
	k := b.MustBuild()

	// A divergent-branch target that must still reconverge: patch the
	// early-out branch's reconvergence point. The builder's BraIf with
	// the "found" label already covers the loop exit; the guarded Bra
	// (via Guard) jumps straight to "found" — it shares the same
	// reconvergence point, which the Bra helper set to its own target.

	tree := make([]uint32, sh.WorkingSet/4)
	queries := make([]uint32, threads)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 23}
		inst.Launch.Params = []uint32{g.words(tree, anyWord), g.output(threads), g.words(queries, anyWord)}
	}
	inst.Check = func(m *mem.Global) error {
		for t := 0; t < threads; t++ {
			q := queries[t]
			pos := ((uint32(t) >> 5) * 2654435769) & (btreeStarts - 1)
			for l := 0; l < sh.Trips; l++ {
				key := tree[pos]
				if (key^q)&7 == 0 {
					break
				}
				bit := uint32(0)
				if q >= key {
					bit = 1
				}
				pos = 2*pos + 1 + bit
			}
			if err := expect(m, s.Name, "out", inst.Launch.Params[1], t, pos); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}

// Hotspot is the calculate_temp proxy: an iterative thermal stencil.
// Each of its Trips time steps streams one fresh power sample from global
// memory and runs a long dependent floating-point chain on register-
// resident state — compute-bound, but with enough memory latency in the
// chain that the baseline's 24 warps per SM cannot hide it all (the
// paper's hotspot gains 21.8% from sharing). 256 threads/block, 36
// registers/thread.
var Hotspot = register(&Spec{
	Name: "hotspot", Suite: "RODINIA", Kernel: "calculate_temp",
	Set: Set1, BlockDim: 256, RegsPerThread: 36,
	// The power tile is WorkingSet/Stride slices of Stride bytes; a
	// step's lanes fan out over the first 8 (per-warp slice) or 16
	// (block-shared slice) cache lines of one.
	shape: Shape{Grid: 252, Trips: 12, WorkingSet: 1 << 20, Stride: 2048},
	build: buildHotspot,
})

func buildHotspot(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim
	slices := sh.WorkingSet / sh.Stride

	b := s.program(s.Kernel, 3)
	const (
		rGid, rTemp, rPow, rOut       = 30, 31, 32, 33
		rOff, rStride, rI             = 34, 35, 29
		rT, rN, rS, rP, rA            = 0, 1, 2, 3, 4
		rD1, rD2, rD3, rD4, rD5, rAdr = 5, 6, 7, 8, 9, 10
	)
	emitGid(b, rGid)
	b.LdParam(rTemp, 0)
	b.LdParam(rPow, 1)
	b.LdParam(rOut, 2)
	b.Shl(rOff, isa.Reg(rGid), isa.Imm(2))
	// Register-resident neighbourhood.
	b.IAdd(rAdr, isa.Reg(rTemp), isa.Reg(rOff))
	b.LdG(rT, isa.Reg(rAdr), 0)
	b.LdG(rN, isa.Reg(rAdr), -4)
	b.LdG(rS, isa.Reg(rAdr), 4)
	// Power-tile slices, revisited across timesteps. Half the lanes
	// read a block-shared slice (hot under any scheduler); the other
	// half read a per-warp slice that stays L1-resident only when the
	// scheduler runs few warps greedily — round-robin over 24+ warps
	// thrashes it. This mirrors the split between hotspot's staged
	// scratchpad tile and its per-warp register-tiled state.
	const (
		rLane   = 11
		rShared = 31 // reuses rTemp after the neighbourhood loads
		rBase   = 34 // reuses rOff
	)
	b.Shr(rStride, isa.Reg(rGid), isa.Imm(5))
	b.And(rStride, isa.Reg(rStride), isa.Imm(int32(slices-1)))
	b.IMad(rPow, isa.Reg(rStride), isa.Imm(int32(sh.Stride)), isa.Reg(rPow))
	b.Mov(rShared, isa.Sreg(isa.SrCtaid))
	b.And(rShared, isa.Reg(rShared), isa.Imm(int32(slices-1)))
	b.IMul(rShared, isa.Reg(rShared), isa.Imm(int32(sh.Stride)))
	b.LdParam(rStride, 1)
	b.IAdd(rShared, isa.Reg(rShared), isa.Reg(rStride))
	const rMask = 12
	b.Mov(rLane, isa.Sreg(isa.SrLane))
	b.Setp(isa.CmpLT, 1, isa.Reg(rLane), isa.Imm(16))
	b.Selp(rBase, isa.Reg(rShared), isa.Reg(rPow), 1)
	b.Selp(rMask, isa.Imm(15), isa.Imm(7), 1)
	b.MovI(rI, 0)
	b.MovI(rA, 0)
	b.Label("step")
	// p = slice[(i*5 + lane) & 7 cache lines in]: the lanes fan out
	// over the whole slice each step, so one step touches all 8 lines.
	b.IMul(rAdr, isa.Reg(rI), isa.Imm(5))
	b.IAdd(rAdr, isa.Reg(rAdr), isa.Reg(rLane))
	b.And(rAdr, isa.Reg(rAdr), isa.Reg(rMask))
	b.Shl(rAdr, isa.Reg(rAdr), isa.Imm(7))
	b.IAdd(rAdr, isa.Reg(rAdr), isa.Reg(rBase))
	b.LdG(rP, isa.Reg(rAdr), 0)
	// Long dependent FP chain (the real hotspot does ~20 FP ops,
	// including divides, per loaded element).
	b.FAdd(rD1, isa.Reg(rN), isa.Reg(rS))
	b.FFma(rD2, isa.Reg(rT), isa.ImmF(-2), isa.Reg(rD1))
	b.FFma(rD3, isa.Reg(rD2), isa.ImmF(0.05), isa.Reg(rP))
	b.FFma(rT, isa.Reg(rD3), isa.ImmF(0.5), isa.Reg(rT))
	b.FSub(rD4, isa.ImmF(80), isa.Reg(rT))
	b.FFma(rT, isa.Reg(rD4), isa.ImmF(0.02), isa.Reg(rT))
	b.FRcp(rD5, isa.Reg(rD4))
	b.FFma(rT, isa.Reg(rD5), isa.ImmF(0.003), isa.Reg(rT))
	b.FMul(rD5, isa.Reg(rT), isa.ImmF(0.999))
	b.FFma(rD5, isa.Reg(rD5), isa.ImmF(0.25), isa.Reg(rD5))
	b.FFma(rD5, isa.Reg(rD5), isa.ImmF(-0.125), isa.Reg(rD5))
	b.FFma(rD5, isa.Reg(rD5), isa.ImmF(0.0625), isa.Reg(rD5))
	b.FFma(rD5, isa.Reg(rD5), isa.ImmF(-0.03125), isa.Reg(rD5))
	b.FFma(rD5, isa.Reg(rD5), isa.ImmF(0.015625), isa.Reg(rD5))
	b.FAdd(rA, isa.Reg(rA), isa.Reg(rD5))
	b.FMul(rN, isa.Reg(rN), isa.ImmF(0.998))
	b.FMul(rS, isa.Reg(rS), isa.ImmF(0.998))
	b.IAdd(rI, isa.Reg(rI), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "step", "done")
	b.Label("done")
	b.Shl(rAdr, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rAdr, isa.Reg(rOut), isa.Reg(rAdr))
	b.FAdd(rT, isa.Reg(rT), isa.Reg(rA))
	b.StG(isa.Reg(rAdr), 0, isa.Reg(rT))
	b.Exit()
	k := b.MustBuild()

	temp := make([]float32, n+2)
	pow := make([]float32, sh.WorkingSet/4)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 31}
		for i := range temp { // two draws past the n the kernel reads
			temp[i] = 60 + 20*unitFloat(g.rng.next())
		}
		for i := range pow {
			pow[i] = unitFloat(g.rng.next())
		}
		// A zero word on each side of the temperatures for the [-4] and
		// [+4] neighbour loads.
		tempAddr := m.Alloc(4*(n+2)) + 4
		m.WriteFloats(tempAddr, temp[:n])
		inst.Launch.Params = []uint32{tempAddr, g.floats(pow, nil), g.output(n)}
	}
	inst.Check = func(m *mem.Global) error {
		tempAddr, outAddr := inst.Launch.Params[0], inst.Launch.Params[2]
		load := func(addr uint32) float32 { return mem.F32FromBits(m.Load32(addr)) }
		for gid := 0; gid < n; gid += 997 { // spot-check (full loop is hot)
			t := load(tempAddr + uint32(4*gid))
			nv := load(tempAddr + uint32(4*gid) - 4)
			sv := load(tempAddr + uint32(4*gid) + 4)
			var acc float32
			slice := (gid >> 5) & (slices - 1)
			mask := 7
			if lane := gid & 31; lane < 16 {
				slice = (gid / 256) & (slices - 1) // block-shared slice
				mask = 15
			}
			lane := gid & 31
			for i := 0; i < sh.Trips; i++ {
				p := pow[slice*(sh.Stride/4)+((i*5+lane)&mask)*32]
				d1 := nv + sv
				d2 := float32(t*-2) + d1
				d3 := float32(d2*0.05) + p
				t = float32(d3*0.5) + t
				d4 := float32(80) - t
				t = float32(d4*0.02) + t
				d5 := rcpf32(d4)
				t = float32(d5*0.003) + t
				d5 = float32(t * 0.999)
				d5 = float32(d5*0.25) + d5
				d5 = float32(d5*-0.125) + d5
				d5 = float32(d5*0.0625) + d5
				d5 = float32(d5*-0.03125) + d5
				d5 = float32(d5*0.015625) + d5
				acc += d5
				nv = float32(nv * 0.998)
				sv = float32(sv * 0.998)
			}
			if err := expect(m, s.Name, "out", outAddr, gid, f32bits(t+acc)); err != nil {
				return err
			}
		}
		return nil
	}
	return inst
}
