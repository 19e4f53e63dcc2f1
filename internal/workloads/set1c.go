package workloads

import (
	"fmt"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// Sgemm is the mysgemmNT proxy: a register-tiled matrix-multiply inner
// loop. Each thread keeps a 4-element accumulator tile in registers and
// per iteration loads one streaming A element plus one block-shared B
// element (warp-broadcast, L1-resident), then issues 4 FFMAs. 128
// threads/block, 48 registers/thread — the paper's example for register
// declaration reordering (Fig. 7 shows sgemm PTXPlus).
var Sgemm = register(&Spec{
	Name: "sgemm", Suite: "PARBOIL", Kernel: "mysgemmNT",
	Set: Set1, BlockDim: 128, RegsPerThread: 48,
	Build: buildSgemm,
})

const sgemmK = 16

func buildSgemm(scale int) *Instance {
	grid := 336 * scale
	threads := grid * 128

	b := kernel.NewBuilder("mysgemmNT", 128)
	b.Params(3).SetRegs(48)
	// High-numbered registers first (declaration order), as the real
	// PTXPlus does: the unroll pass pulls them down to the private range.
	const (
		rGid, rAbase, rBbase, rOut = 40, 41, 42, 43
		rK, rAv, rBv, rA1, rT      = 44, 0, 1, 2, 3
		rC0, rC1, rC2, rC3         = 4, 5, 6, 7
		rStrideA                   = 45
	)
	emitGid(b, rGid)
	b.LdParam(rAbase, 0)
	b.LdParam(rBbase, 1)
	b.LdParam(rOut, 2)
	// A is stored column-major (a[k*threads + gid]), so lanes coalesce:
	// base addr = a + gid*4, stride per k = threads*4.
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rAbase, isa.Reg(rAbase), isa.Reg(rT))
	emitTotalThreads(b, rStrideA)
	b.Shl(rStrideA, isa.Reg(rStrideA), isa.Imm(2))
	// B tile base: b + ctaid%64 * K*4 (per-block column, broadcast loads)
	b.Mov(rT, isa.Sreg(isa.SrCtaid))
	b.And(rT, isa.Reg(rT), isa.Imm(63))
	b.IMad(rBbase, isa.Reg(rT), isa.Imm(sgemmK*4), isa.Reg(rBbase))
	b.MovF(rC0, 0)
	b.MovF(rC1, 0)
	b.MovF(rC2, 0)
	b.MovF(rC3, 0)
	b.MovI(rK, 0)
	b.Label("kloop")
	b.LdG(rAv, isa.Reg(rAbase), 0)
	b.IAdd(rAbase, isa.Reg(rAbase), isa.Reg(rStrideA))
	b.Shl(rA1, isa.Reg(rK), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rBbase), isa.Reg(rA1))
	b.LdG(rBv, isa.Reg(rT), 0)
	// A 4x4 register tile: 12 FFMAs per A/B element pair, as a register-
	// tiled sgemm amortizes its loads over many multiply-accumulates.
	b.FFma(rC0, isa.Reg(rAv), isa.Reg(rBv), isa.Reg(rC0))
	b.FFma(rC1, isa.Reg(rAv), isa.ImmF(1.5), isa.Reg(rC1))
	b.FFma(rC2, isa.Reg(rBv), isa.ImmF(0.5), isa.Reg(rC2))
	b.FFma(rC3, isa.Reg(rC0), isa.ImmF(0.25), isa.Reg(rC3))
	b.FFma(rC0, isa.Reg(rC1), isa.ImmF(0.125), isa.Reg(rC0))
	b.FFma(rC1, isa.Reg(rC2), isa.ImmF(-0.125), isa.Reg(rC1))
	b.FFma(rC2, isa.Reg(rC3), isa.ImmF(0.0625), isa.Reg(rC2))
	b.FFma(rC3, isa.Reg(rC0), isa.ImmF(-0.0625), isa.Reg(rC3))
	b.FFma(rC0, isa.Reg(rAv), isa.Reg(rC2), isa.Reg(rC0))
	b.FFma(rC1, isa.Reg(rBv), isa.Reg(rC3), isa.Reg(rC1))
	b.FFma(rC2, isa.Reg(rAv), isa.ImmF(0.03125), isa.Reg(rC2))
	b.FFma(rC3, isa.Reg(rBv), isa.ImmF(-0.03125), isa.Reg(rC3))
	b.IAdd(rK, isa.Reg(rK), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rK), isa.Imm(sgemmK))
	b.BraIf(0, false, "kloop", "fin")
	b.Label("fin")
	b.FAdd(rC0, isa.Reg(rC0), isa.Reg(rC1))
	b.FAdd(rC2, isa.Reg(rC2), isa.Reg(rC3))
	b.FAdd(rC0, isa.Reg(rC0), isa.Reg(rC2))
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rC0))
	b.Exit()
	k := b.MustBuild()

	a := make([]float32, threads*sgemmK)
	bm := make([]float32, 64*sgemmK)
	var aAddr, bAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(71)
			for i := range a {
				a[i] = rng.nextFloat()
			}
			for i := range bm {
				bm[i] = rng.nextFloat()
			}
			aAddr = m.Alloc(4 * len(a))
			bAddr = m.Alloc(4 * len(bm))
			outAddr = m.Alloc(4 * threads)
			m.WriteFloats(aAddr, a)
			m.WriteFloats(bAddr, bm)
			launch.Params = []uint32{aAddr, bAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for t := 0; t < threads; t += 131 {
				blk := t / 128
				var c0, c1, c2, c3 float32
				for kk := 0; kk < sgemmK; kk++ {
					av := a[kk*threads+t]
					bv := bm[(blk&63)*sgemmK+kk]
					c0 = float32(av*bv) + c0
					c1 = float32(av*1.5) + c1
					c2 = float32(bv*0.5) + c2
					c3 = float32(c0*0.25) + c3
					c0 = float32(c1*0.125) + c0
					c1 = float32(c2*-0.125) + c1
					c2 = float32(c3*0.0625) + c2
					c3 = float32(c0*-0.0625) + c3
					c0 = float32(av*c2) + c0
					c1 = float32(bv*c3) + c1
					c2 = float32(av*0.03125) + c2
					c3 = float32(bv*-0.03125) + c3
				}
				want := f32bits(c0 + c1 + (c2 + c3))
				if got := m.Load32(outAddr + uint32(4*t)); got != want {
					return fmt.Errorf("sgemm out[%d] = %#x, want %#x", t, got, want)
				}
			}
			return nil
		},
	}
}

// Stencil is the block2D_hybrid_coarsen_x proxy: like hotspot, a time-
// stepped stencil whose steps each stream one fresh sample and run a
// dependent FP chain, but with 512-thread blocks: the baseline fits only
// 2 blocks (32 warps) per SM and sharing raises it to 3, the paper's
// +23.5%. 512 threads/block, 28 registers/thread.
var Stencil = register(&Spec{
	Name: "stencil", Suite: "PARBOIL", Kernel: "block2D_hybrid_coarsen_x",
	Set: Set1, BlockDim: 512, RegsPerThread: 28,
	Build: buildStencil,
})

const (
	stencilSteps  = 12
	stencilSlices = 512  // per-warp coefficient slices
	stencilSliceB = 2048 // bytes per slice (16 cache lines)
)

func buildStencil(scale int) *Instance {
	grid := 126 * scale
	n := grid * 512

	b := kernel.NewBuilder("block2D_hybrid_coarsen_x", 512)
	b.Params(3).SetRegs(28)
	const (
		rGid, rIn, rOut, rOff, rCoef = 22, 23, 24, 25, 26
		rC, rL, rR, rV, rT1, rT2, rI = 0, 1, 2, 3, 4, 5, 6
		rAdr                         = 7
	)
	emitGid(b, rGid)
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	b.Shl(rOff, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rAdr, isa.Reg(rIn), isa.Reg(rOff))
	b.LdG(rC, isa.Reg(rAdr), 0)
	b.LdG(rL, isa.Reg(rAdr), -4)
	b.LdG(rR, isa.Reg(rAdr), 4)
	// Coefficient slices revisited every timestep: half the lanes read
	// a block-shared slice, half a per-warp slice that only greedy
	// scheduling keeps L1-resident.
	const (
		rLane   = 8
		rShared = 9
	)
	b.LdParam(rCoef, 2)
	b.Shr(rT1, isa.Reg(rGid), isa.Imm(5))
	b.And(rT1, isa.Reg(rT1), isa.Imm(stencilSlices-1))
	b.IMad(rCoef, isa.Reg(rT1), isa.Imm(stencilSliceB), isa.Reg(rCoef))
	b.Mov(rShared, isa.Sreg(isa.SrCtaid))
	b.And(rShared, isa.Reg(rShared), isa.Imm(stencilSlices-1))
	b.IMul(rShared, isa.Reg(rShared), isa.Imm(stencilSliceB))
	b.LdParam(rT1, 2)
	b.IAdd(rShared, isa.Reg(rShared), isa.Reg(rT1))
	const rMask = 10
	b.Mov(rLane, isa.Sreg(isa.SrLane))
	b.Setp(isa.CmpLT, 1, isa.Reg(rLane), isa.Imm(16))
	b.Selp(rCoef, isa.Reg(rShared), isa.Reg(rCoef), 1)
	b.Selp(rMask, isa.Imm(15), isa.Imm(3), 1)
	b.MovI(rI, 0)
	b.Label("step")
	// Lanes fan out over the warp's whole slice each step.
	b.IMul(rAdr, isa.Reg(rI), isa.Imm(5))
	b.IAdd(rAdr, isa.Reg(rAdr), isa.Reg(rLane))
	b.And(rAdr, isa.Reg(rAdr), isa.Reg(rMask))
	b.Shl(rAdr, isa.Reg(rAdr), isa.Imm(7))
	b.IAdd(rAdr, isa.Reg(rAdr), isa.Reg(rCoef))
	b.LdG(rV, isa.Reg(rAdr), 0)
	b.FAdd(rT1, isa.Reg(rL), isa.Reg(rR))
	b.FFma(rT1, isa.Reg(rC), isa.ImmF(-2), isa.Reg(rT1))
	b.FFma(rT2, isa.Reg(rT1), isa.ImmF(0.2), isa.Reg(rV))
	b.FFma(rC, isa.Reg(rT2), isa.ImmF(0.5), isa.Reg(rC))
	b.FMul(rL, isa.Reg(rL), isa.ImmF(0.995))
	b.FMul(rR, isa.Reg(rR), isa.ImmF(0.995))
	b.FFma(rC, isa.Reg(rC), isa.ImmF(0.001), isa.Reg(rC))
	// Dependent smoothing tail (coarsened-x stencils run many FP ops
	// per streamed element).
	b.FFma(rT2, isa.Reg(rC), isa.ImmF(0.5), isa.Reg(rT1))
	b.FFma(rT2, isa.Reg(rT2), isa.ImmF(-0.25), isa.Reg(rC))
	b.FFma(rT2, isa.Reg(rT2), isa.ImmF(0.125), isa.Reg(rT2))
	b.FFma(rT2, isa.Reg(rT2), isa.ImmF(-0.0625), isa.Reg(rT2))
	b.FFma(rT2, isa.Reg(rT2), isa.ImmF(0.03125), isa.Reg(rT2))
	b.FFma(rT2, isa.Reg(rT2), isa.ImmF(-0.015625), isa.Reg(rT2))
	b.FFma(rC, isa.Reg(rT2), isa.ImmF(0.01), isa.Reg(rC))
	b.IAdd(rI, isa.Reg(rI), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Imm(stencilSteps))
	b.BraIf(0, false, "step", "fin")
	b.Label("fin")
	b.Shl(rAdr, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rAdr, isa.Reg(rOut), isa.Reg(rAdr))
	b.StG(isa.Reg(rAdr), 0, isa.Reg(rC))
	b.Exit()
	k := b.MustBuild()

	in := make([]float32, n+1)
	coef := make([]float32, stencilSlices*stencilSliceB/4)
	var inAddr, outAddr, coefAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(83)
			for i := range in {
				in[i] = rng.nextFloat() * 4
			}
			for i := range coef {
				coef[i] = rng.nextFloat()
			}
			inAddr = m.Alloc(4*len(in)+4) + 4
			outAddr = m.Alloc(4 * n)
			coefAddr = m.Alloc(4 * len(coef))
			m.WriteFloats(inAddr, in)
			m.WriteFloats(coefAddr, coef)
			launch.Params = []uint32{inAddr, outAddr, coefAddr}
		},
		Check: func(m *mem.Global) error {
			load := func(i int) float32 {
				if i < 0 {
					return mem.F32FromBits(m.Load32(inAddr - 4))
				}
				return in[i]
			}
			for gid := 0; gid < n; gid += 509 {
				c := load(gid)
				l := load(gid - 1)
				r := load(gid + 1)
				slice := (gid >> 5) & (stencilSlices - 1)
				mask := 3
				if gid&31 < 16 {
					slice = (gid / 512) & (stencilSlices - 1) // block-shared slice
					mask = 15
				}
				lane := gid & 31
				for i := 0; i < stencilSteps; i++ {
					v := coef[slice*(stencilSliceB/4)+((i*5+lane)&mask)*32]
					t1 := l + r
					t1 = float32(c*-2) + t1
					t2 := float32(t1*0.2) + v
					c = float32(t2*0.5) + c
					l = float32(l * 0.995)
					r = float32(r * 0.995)
					c = float32(c*0.001) + c
					t2 = float32(c*0.5) + t1
					t2 = float32(t2*-0.25) + c
					t2 = float32(t2*0.125) + t2
					t2 = float32(t2*-0.0625) + t2
					t2 = float32(t2*0.03125) + t2
					t2 = float32(t2*-0.015625) + t2
					c = float32(t2*0.01) + c
				}
				if got := m.Load32(outAddr + uint32(4*gid)); got != f32bits(c) {
					return fmt.Errorf("stencil out[%d] = %#x, want %#x", gid, got, f32bits(c))
				}
			}
			return nil
		},
	}
}
