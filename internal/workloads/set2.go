package workloads

import (
	"gpushare/internal/isa"
	"gpushare/internal/mem"
)

// Set-2: benchmarks limited by scratchpad memory (Table III). Scratchpad
// footprints match the table exactly; under scratchpad sharing with
// t=0.1 the private region is the first ⌊0.1·Rtb⌋ bytes, so whether a
// proxy's accesses land in the shared region (and thus contend for the
// block-pair lock) is controlled by where each kernel places its tiles —
// mirroring what the paper reports per application (lavaMD never touches
// the shared region; SRAD2 hits it immediately before a barrier).

// Conv1 is the convolutionRowsKernel proxy: 64 threads stage an 80-word
// tile (main + halo) into scratchpad, synchronize, and each thread
// accumulates a 17-tap FIR from the staged data, Trips rounds over. The
// staged words span bytes 0..352, crossing the 256-byte private bound
// at t=0.1.
var Conv1 = register(&Spec{
	Name: "CONV1", Suite: "CUDA-SDK", Kernel: "convolutionRowsKernel",
	Set: Set2, BlockDim: 64, RegsPerThread: 14, SmemPerBlock: 2560,
	shape: Shape{Grid: 448, Trips: 3},
	build: func(s *Spec, sh Shape, scale int) *Instance { return buildConv(s, sh, scale, 8) },
})

// Conv2 is the convolutionColumnsKernel proxy: the column pass with 128
// threads and a 5184-byte tile buffer; 9 taps.
var Conv2 = register(&Spec{
	Name: "CONV2", Suite: "CUDA-SDK", Kernel: "convolutionColumnsKernel",
	Set: Set2, BlockDim: 128, RegsPerThread: 14, SmemPerBlock: 5184,
	shape: Shape{Grid: 224, Trips: 3},
	build: func(s *Spec, sh Shape, scale int) *Instance { return buildConv(s, sh, scale, 4) },
})

// buildConv builds a separable-convolution proxy with the given filter
// radius; the radius sizes the staged tile's halo, so it is part of the
// footprint, not of the shape.
func buildConv(s *Spec, sh Shape, scale, radius int) *Instance {
	grid := sh.Grid * scale
	blockDim := s.BlockDim
	n := grid * blockDim
	taps := 2*radius + 1

	b := s.program(s.Name, 2)
	const (
		rTid, rGid, rIn, rOut = 8, 9, 10, 11
		rA, rV, rAcc, rT      = 0, 1, 2, 3
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	emitGid(b, rGid)
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	// Stage main tile word: smem[(tid+radius)*4] = in[gid]
	b.Shl(rA, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rIn))
	b.LdG(rV, isa.Reg(rA), 0)
	b.IAdd(rT, isa.Reg(rTid), isa.Imm(int32(radius)))
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.StS(isa.Reg(rT), 0, isa.Reg(rV))
	// Halo: threads < 2*radius stage the wrap-around words into the
	// region just past the main tile (words blockDim+radius ...).
	b.Setp(isa.CmpLT, 0, isa.Reg(rTid), isa.Imm(int32(2*radius)))
	b.Guard(0, false)
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.Guard(0, false)
	b.StS(isa.Reg(rT), int32(4*(blockDim+radius)), isa.Reg(rV))
	b.Bar()
	// FIR accumulation from scratchpad, Trips rounds with rotated
	// coefficient phases (the real kernels process several rows per
	// block).
	b.MovF(rAcc, 0)
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	for round := 0; round < sh.Trips; round++ {
		for j := 0; j < taps; j++ {
			b.LdS(rV, isa.Reg(rT), int32(4*j))
			c := 1.0 / float32(j+1+round)
			b.FFma(rAcc, isa.Reg(rV), isa.ImmF(c), isa.Reg(rAcc))
		}
	}
	emitStoreOut(b, rT, rOut, rGid, rAcc)
	b.Exit()
	k := b.MustBuild()

	in := make([]float32, n)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 97}
		inst.Launch.Params = []uint32{g.floats(in, unitFloat), g.output(n)}
	}
	inst.Check = func(m *mem.Global) error {
		smemRef := make([]float32, blockDim+3*radius)
		for blk := 0; blk < grid; blk++ {
			clear(smemRef) // scratchpad is zeroed at block launch
			for tid := 0; tid < blockDim; tid++ {
				smemRef[tid+radius] = in[blk*blockDim+tid]
			}
			// Halo staged from each low thread's own value, at word
			// offset blockDim + radius + tid.
			for tid := 0; tid < 2*radius; tid++ {
				smemRef[tid+blockDim+radius] = in[blk*blockDim+tid]
			}
			for tid := 0; tid < blockDim; tid += 13 {
				var acc float32
				for round := 0; round < sh.Trips; round++ {
					for j := 0; j < taps; j++ {
						acc = float32(smemRef[tid+j]*(1.0/float32(j+1+round))) + acc
					}
				}
				if err := expect(m, s.Name, "out", inst.Launch.Params[1], blk*blockDim+tid, f32bits(acc)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst
}

// LavaMD is the kernel_gpu_cuda proxy: particle interactions. The block
// stages 128 particle values into the first 512 bytes of its 7200-byte
// scratchpad allocation and then runs a long exp-weighted accumulation
// over the staged data. Crucially, no access touches the shared region
// (512 < 720 = 0.1·7200), so the extra blocks launched by sharing never
// wait on the pair lock — the paper's explanation for lavaMD's ~30% gain.
var LavaMD = register(&Spec{
	Name: "lavaMD", Suite: "RODINIA", Kernel: "kernel_gpu_cuda",
	Set: Set2, BlockDim: 128, RegsPerThread: 18, SmemPerBlock: 7200,
	shape: Shape{Grid: 168, Trips: 48}, // Trips neighbours per particle
	build: buildLavaMD,
})

func buildLavaMD(s *Spec, sh Shape, scale int) *Instance {
	grid := sh.Grid * scale
	n := grid * s.BlockDim

	b := s.program(s.Kernel, 2)
	const (
		rTid, rGid, rIn, rOut        = 12, 13, 14, 15
		rA, rV, rAcc, rJ, rD, rE, rT = 0, 1, 2, 3, 4, 5, 6
		rMine, rAcc2                 = 7, 8
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	emitGid(b, rGid)
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	// Stage this thread's particle: smem[tid*4] = in[gid]
	b.Shl(rA, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rIn))
	b.LdG(rMine, isa.Reg(rA), 0)
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.StS(isa.Reg(rT), 0, isa.Reg(rMine))
	b.Bar()
	const (
		rV2 = 9
		rD2 = 10
		rE2 = 11
	)
	b.MovF(rAcc, 0)
	b.MovF(rAcc2, 0)
	b.MovI(rJ, 0)
	b.Label("nb")
	// Two neighbours per iteration with independent chains: the
	// baseline's 8 warps then cover most of the SFU/scratchpad latency.
	b.IAdd(rT, isa.Reg(rTid), isa.Reg(rJ))
	b.And(rT, isa.Reg(rT), isa.Imm(127))
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.LdS(rV, isa.Reg(rT), 0)
	b.IAdd(rT, isa.Reg(rTid), isa.Reg(rJ))
	b.IAdd(rT, isa.Reg(rT), isa.Imm(1))
	b.And(rT, isa.Reg(rT), isa.Imm(127))
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.LdS(rV2, isa.Reg(rT), 0)
	b.FSub(rD, isa.Reg(rMine), isa.Reg(rV))
	b.FSub(rD2, isa.Reg(rMine), isa.Reg(rV2))
	b.FMul(rD, isa.Reg(rD), isa.Reg(rD))
	b.FMul(rD2, isa.Reg(rD2), isa.Reg(rD2))
	b.FMul(rD, isa.Reg(rD), isa.ImmF(-1))
	b.FMul(rD2, isa.Reg(rD2), isa.ImmF(-1))
	b.FExp(rE, isa.Reg(rD))
	b.FExp(rE2, isa.Reg(rD2))
	b.FFma(rAcc, isa.Reg(rE), isa.Reg(rV), isa.Reg(rAcc))
	b.FFma(rAcc2, isa.Reg(rE2), isa.Reg(rV2), isa.Reg(rAcc2))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(2))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(int32(sh.Trips)))
	b.BraIf(0, false, "nb", "fin")
	b.Label("fin")
	b.FAdd(rAcc, isa.Reg(rAcc), isa.Reg(rAcc2))
	emitStoreOut(b, rT, rOut, rGid, rAcc)
	b.Exit()
	k := b.MustBuild()

	in := make([]float32, n)
	inst := newInstance(k, grid)
	inst.Setup = func(m *mem.Global) {
		g := inputs{m: m, rng: 103}
		inst.Launch.Params = []uint32{g.floats(in, func(x uint64) float32 { return unitFloat(x) * 2 }), g.output(n)}
	}
	inst.Check = func(m *mem.Global) error {
		for blk := 0; blk < grid; blk += 7 {
			for tid := 0; tid < 128; tid += 29 {
				mine := in[blk*128+tid]
				var acc, acc2 float32
				for j := 0; j < sh.Trips; j += 2 {
					v := in[blk*128+(tid+j)&127]
					v2 := in[blk*128+(tid+j+1)&127]
					d := mine - v
					d2 := mine - v2
					d = d * d
					d2 = d2 * d2
					d = d * -1
					d2 = d2 * -1
					e := exp2f32(d)
					e2 := exp2f32(d2)
					acc = float32(e*v) + acc
					acc2 = float32(e2*v2) + acc2
				}
				acc += acc2
				if err := expect(m, s.Name, "out", inst.Launch.Params[1], blk*128+tid, f32bits(acc)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst
}
