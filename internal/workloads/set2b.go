package workloads

import (
	"fmt"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// NW1 and NW2 are the needle_cuda_shared_1/2 proxies: Needleman-Wunsch
// wavefront alignment over a 16x16 tile held in scratchpad, one diagonal
// per step with predicated lanes. The 2180-byte footprint is exactly a
// 17x17 score matrix (1156B) plus a 16x16 reference tile (1024B), both
// mostly above the 218-byte private bound at t=0.1, so shared pairs
// contend for the scratchpad lock. 16 threads/block (one half-warp).
var NW1 = register(&Spec{
	Name: "NW1", Suite: "RODINIA", Kernel: "needle_cuda_shared_1",
	Set: Set2, BlockDim: 16, RegsPerThread: 16, SmemPerBlock: 2180,
	Build: func(scale int) *Instance { return buildNW("NW1", 16, 448*scale) },
})

// NW2 processes the full wavefront (both triangles), running almost
// twice the steps of NW1.
var NW2 = register(&Spec{
	Name: "NW2", Suite: "RODINIA", Kernel: "needle_cuda_shared_2",
	Set: Set2, BlockDim: 16, RegsPerThread: 16, SmemPerBlock: 2180,
	Build: func(scale int) *Instance { return buildNW("NW2", 30, 448*scale) },
})

const (
	nwTile   = 16
	nwStride = 16 // matrix row stride in words: diagonal
	// accesses then hit 16 distinct banks
	nwRefOff  = 4 * (nwTile*nwStride + nwTile + 1) // 1092: ref tile after the matrix
	nwPenalty = 10
)

func buildNW(name string, steps, grid int) *Instance {
	n := grid * nwTile

	b := kernel.NewBuilder(name, nwTile)
	b.Params(2).SetSmem(2180).SetRegs(16)
	const (
		rTid, rRef, rOut, rI16, rRB = 10, 11, 12, 13, 14
		rJ, rJ4, rA, rV, rD, rU, rL = 0, 1, 2, 3, 4, 5, 6
		rR, rT, rG                  = 7, 8, 9
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	b.LdParam(rRef, 0)
	b.LdParam(rOut, 1)
	// Boundary: m[0][tid+1] = m[tid+1][0] = -(tid+1)*penalty. With the
	// 16-word stride, word 16 is both (0,16) and (1,0); the column
	// store below executes second and deterministically wins.
	b.IAdd(rT, isa.Reg(rTid), isa.Imm(1))
	b.IMul(rV, isa.Reg(rT), isa.Imm(-nwPenalty))
	b.Shl(rA, isa.Reg(rT), isa.Imm(2))
	b.StS(isa.Reg(rA), 0, isa.Reg(rV)) // row 0
	b.Shl(rA, isa.Reg(rT), isa.Imm(6))
	b.StS(isa.Reg(rA), 0, isa.Reg(rV)) // column 0
	// Stage the reference tile transposed (ref'[c*16+r] = refG[r*16+c])
	// so wavefront reads are bank-conflict free.
	b.Mov(rT, isa.Sreg(isa.SrCtaid))
	b.IMul(rT, isa.Reg(rT), isa.Imm(nwTile*nwTile*4))
	b.IAdd(rT, isa.Reg(rT), isa.Reg(rRef))
	b.Shl(rA, isa.Reg(rTid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rT), isa.Reg(rA)) // global addr of refG[0*16+tid]
	b.Shl(rA, isa.Reg(rTid), isa.Imm(6)) // smem byte base of ref'[tid*16]
	for r := 0; r < nwTile; r++ {
		b.LdG(rV, isa.Reg(rT), int32(4*nwTile*r))
		b.StS(isa.Reg(rA), int32(nwRefOff+4*r), isa.Reg(rV))
	}
	b.Bar()
	// Precompute the byte base of row tid+1 and of the ref column.
	b.IAdd(rT, isa.Reg(rTid), isa.Imm(1))
	b.Shl(rI16, isa.Reg(rT), isa.Imm(6)) // (tid+1)*16 words -> bytes
	b.Shl(rRB, isa.Reg(rTid), isa.Imm(2))
	b.IAdd(rRB, isa.Reg(rRB), isa.Imm(nwRefOff-64))
	for s := 0; s < steps; s++ {
		// j = s+1-tid; active when 1 <= j <= 16.
		b.MovI(rJ, int32(s+1))
		b.ISub(rJ, isa.Reg(rJ), isa.Reg(rTid))
		b.IAdd(rT, isa.Reg(rJ), isa.Imm(-1))
		b.Setp(isa.CmpLTU, 0, isa.Reg(rT), isa.Imm(nwTile))
		// addr = row base + j*4
		b.Guard(0, false)
		b.Shl(rJ4, isa.Reg(rJ), isa.Imm(2))
		b.Guard(0, false)
		b.IAdd(rA, isa.Reg(rI16), isa.Reg(rJ4))
		b.Guard(0, false)
		b.LdS(rD, isa.Reg(rA), -4*(nwStride+1)) // diagonal
		b.Guard(0, false)
		b.LdS(rU, isa.Reg(rA), -4*nwStride) // up
		b.Guard(0, false)
		b.LdS(rL, isa.Reg(rA), -4) // left
		// refv = ref'[(j-1)*16 + tid]
		b.Guard(0, false)
		b.Shl(rT, isa.Reg(rJ), isa.Imm(6))
		b.Guard(0, false)
		b.IAdd(rT, isa.Reg(rRB), isa.Reg(rT))
		b.Guard(0, false)
		b.LdS(rR, isa.Reg(rT), 0)
		b.Guard(0, false)
		b.IAdd(rD, isa.Reg(rD), isa.Reg(rR))
		b.Guard(0, false)
		b.IAdd(rU, isa.Reg(rU), isa.Imm(-nwPenalty))
		b.Guard(0, false)
		b.IAdd(rL, isa.Reg(rL), isa.Imm(-nwPenalty))
		b.Guard(0, false)
		b.IMax(rU, isa.Reg(rU), isa.Reg(rL))
		b.Guard(0, false)
		b.IMax(rD, isa.Reg(rD), isa.Reg(rU))
		b.Guard(0, false)
		b.StS(isa.Reg(rA), 0, isa.Reg(rD))
		b.Bar()
	}
	// out[gid] = m[tid+1][16-tid] for NW1 (last anti-diagonal cell this
	// thread computed); for NW2 every cell is final so use m[tid+1][16].
	if steps >= 2*nwTile-2 {
		b.MovI(rJ, int32(nwTile))
	} else {
		b.MovI(rJ, int32(nwTile))
		b.ISub(rJ, isa.Reg(rJ), isa.Reg(rTid))
	}
	b.Shl(rJ4, isa.Reg(rJ), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rI16), isa.Reg(rJ4))
	b.LdS(rV, isa.Reg(rA), 0)
	emitGid(b, rG)
	b.Shl(rT, isa.Reg(rG), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rV))
	b.Exit()
	k := b.MustBuild()

	ref := make([]int32, n*nwTile)
	var refAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(113)
			for i := range ref {
				ref[i] = int32(rng.nextN(21)) - 10
			}
			refAddr = m.Alloc(4 * len(ref))
			outAddr = m.Alloc(4 * n)
			for i, v := range ref {
				m.Store32(refAddr+uint32(4*i), uint32(v))
			}
			launch.Params = []uint32{refAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			// The flat 16-word-stride matrix reproduces the kernel's
			// (benign, deterministic) word-16 alias of (0,16)/(1,0).
			mtx := make([]int32, nwTile*nwStride+nwTile+1)
			for blk := 0; blk < grid; blk++ {
				clear(mtx)
				for t := 1; t <= nwTile; t++ {
					mtx[t] = int32(-t * nwPenalty)
				}
				for t := 1; t <= nwTile; t++ {
					mtx[t*nwStride] = int32(-t * nwPenalty)
				}
				for s := 0; s < steps; s++ {
					for tid := 0; tid < nwTile; tid++ {
						j := s + 1 - tid
						if j < 1 || j > nwTile {
							continue
						}
						i := tid + 1
						d := mtx[(i-1)*nwStride+j-1] + ref[blk*nwTile*nwTile+(i-1)*nwTile+(j-1)]
						u := mtx[(i-1)*nwStride+j] - nwPenalty
						l := mtx[i*nwStride+j-1] - nwPenalty
						mtx[i*nwStride+j] = max(d, max(u, l))
					}
				}
				for tid := 0; tid < nwTile; tid++ {
					j := nwTile - tid
					if steps >= 2*nwTile-2 {
						j = nwTile
					}
					want := uint32(mtx[(tid+1)*nwStride+j])
					gid := blk*nwTile + tid
					if got := m.Load32(outAddr + uint32(4*gid)); got != want {
						return fmt.Errorf("%s out[%d] = %d, want %d", name, gid, int32(got), int32(want))
					}
				}
			}
			return nil
		},
	}
}

// SRAD1 is the srad_cuda_1 proxy: stage a 256-word tile (partly private),
// compute four directional derivatives into scratchpad regions that sit
// squarely in the shared pool, then a reciprocal-based diffusion update.
// 256 threads/block, 6144 bytes/block.
var SRAD1 = register(&Spec{
	Name: "SRAD1", Suite: "RODINIA", Kernel: "srad_cuda_1",
	Set: Set2, BlockDim: 256, RegsPerThread: 16, SmemPerBlock: 6144,
	Build: buildSRAD1,
})

func buildSRAD1(scale int) *Instance {
	grid := 224 * scale
	n := grid * 256
	const (
		tileOff = 0
		dNOff   = 1024
		dSOff   = 2048
		dWOff   = 3072
		dEOff   = 4096
	)

	b := kernel.NewBuilder("srad_cuda_1", 256)
	b.Params(2).SetSmem(6144).SetRegs(16)
	const (
		rTid, rGid, rIn, rOut          = 10, 11, 12, 13
		rA, rV, rT, rN, rS, rW, rE, rC = 0, 1, 2, 3, 4, 5, 6, 7
		rSum                           = 8
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	emitGid(b, rGid)
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	// Load the centre value plus two global neighbours (the real
	// srad_cuda_1 reads the image and the c coefficients).
	b.Shl(rA, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rIn))
	b.LdG(rV, isa.Reg(rA), 0)
	b.IAdd(rT, isa.Reg(rTid), isa.Imm(-16))
	b.And(rT, isa.Reg(rT), isa.Imm(255))
	b.ISub(rT, isa.Reg(rT), isa.Reg(rTid))
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rT), isa.Reg(rA))
	b.LdG(rN, isa.Reg(rT), 0)
	b.IAdd(rT, isa.Reg(rTid), isa.Imm(16))
	b.And(rT, isa.Reg(rT), isa.Imm(255))
	b.ISub(rT, isa.Reg(rT), isa.Reg(rTid))
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rT), isa.Reg(rA))
	b.LdG(rS, isa.Reg(rT), 0)
	b.FAdd(rN, isa.Reg(rN), isa.Reg(rS))
	b.FFma(rV, isa.Reg(rN), isa.ImmF(0.0625), isa.Reg(rV))
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.StS(isa.Reg(rT), tileOff, isa.Reg(rV))
	b.Bar()
	// Directional differences (wrap-around neighbours within the tile).
	emitSradNb(b, rN, rTid, -16)
	emitSradNb(b, rS, rTid, 16)
	emitSradNb(b, rW, rTid, -1)
	emitSradNb(b, rE, rTid, 1)
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.FSub(rN, isa.Reg(rN), isa.Reg(rV))
	b.StS(isa.Reg(rT), dNOff, isa.Reg(rN))
	b.FSub(rS, isa.Reg(rS), isa.Reg(rV))
	b.StS(isa.Reg(rT), dSOff, isa.Reg(rS))
	b.FSub(rW, isa.Reg(rW), isa.Reg(rV))
	b.StS(isa.Reg(rT), dWOff, isa.Reg(rW))
	b.FSub(rE, isa.Reg(rE), isa.Reg(rV))
	b.StS(isa.Reg(rT), dEOff, isa.Reg(rE))
	// c = 1/(1 + dN^2+dS^2+dW^2+dE^2); out = v + 0.25*c*(dN+dS+dW+dE)
	b.FMul(rC, isa.Reg(rN), isa.Reg(rN))
	b.FFma(rC, isa.Reg(rS), isa.Reg(rS), isa.Reg(rC))
	b.FFma(rC, isa.Reg(rW), isa.Reg(rW), isa.Reg(rC))
	b.FFma(rC, isa.Reg(rE), isa.Reg(rE), isa.Reg(rC))
	b.FAdd(rC, isa.Reg(rC), isa.ImmF(1))
	b.FRcp(rC, isa.Reg(rC))
	b.FAdd(rSum, isa.Reg(rN), isa.Reg(rS))
	b.FAdd(rSum, isa.Reg(rSum), isa.Reg(rW))
	b.FAdd(rSum, isa.Reg(rSum), isa.Reg(rE))
	b.FMul(rSum, isa.Reg(rSum), isa.Reg(rC))
	b.FFma(rV, isa.Reg(rSum), isa.ImmF(0.25), isa.Reg(rV))
	// Refinement rounds (the real srad_cuda_1 computes the full
	// diffusion coefficient expression per direction).
	for round := 0; round < 3; round++ {
		b.FFma(rSum, isa.Reg(rV), isa.ImmF(0.5), isa.Reg(rSum))
		b.FFma(rSum, isa.Reg(rSum), isa.ImmF(-0.25), isa.Reg(rSum))
		b.FFma(rSum, isa.Reg(rSum), isa.ImmF(0.125), isa.Reg(rSum))
		b.FFma(rSum, isa.Reg(rSum), isa.ImmF(-0.0625), isa.Reg(rSum))
		b.FFma(rSum, isa.Reg(rSum), isa.ImmF(0.03125), isa.Reg(rSum))
		b.FFma(rSum, isa.Reg(rSum), isa.ImmF(-0.015625), isa.Reg(rSum))
		b.FFma(rV, isa.Reg(rSum), isa.ImmF(0.01), isa.Reg(rV))
	}
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rV))
	b.Exit()
	k := b.MustBuild()

	in := make([]float32, n)
	var inAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(127)
			for i := range in {
				in[i] = rng.nextFloat()
			}
			inAddr = m.Alloc(4 * n)
			outAddr = m.Alloc(4 * n)
			m.WriteFloats(inAddr, in)
			launch.Params = []uint32{inAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for blk := 0; blk < grid; blk += 5 {
				for tid := 0; tid < 256; tid += 37 {
					gnb := func(d int) float32 { return in[blk*256+(tid+d+256)&255] }
					v := float32((gnb(-16)+gnb(16))*0.0625) + in[blk*256+tid]
					tile := make([]float32, 256)
					for t2 := 0; t2 < 256; t2++ {
						tile[t2] = float32((in[blk*256+(t2-16+256)&255]+in[blk*256+(t2+16)&255])*0.0625) + in[blk*256+t2]
					}
					nb := func(d int) float32 { return tile[(tid+d+256)&255] }
					dn := nb(-16) - v
					ds := nb(16) - v
					dw := nb(-1) - v
					de := nb(1) - v
					c := float32(dn * dn)
					c = float32(ds*ds) + c
					c = float32(dw*dw) + c
					c = float32(de*de) + c
					c += 1
					c = 1 / c
					sum := dn + ds
					sum += dw
					sum += de
					sum = float32(sum * c)
					v = float32(sum*0.25) + v
					for round := 0; round < 3; round++ {
						sum = float32(v*0.5) + sum
						sum = float32(sum*-0.25) + sum
						sum = float32(sum*0.125) + sum
						sum = float32(sum*-0.0625) + sum
						sum = float32(sum*0.03125) + sum
						sum = float32(sum*-0.015625) + sum
						v = float32(sum*0.01) + v
					}
					want := f32bits(v)
					gid := blk*256 + tid
					if got := m.Load32(outAddr + uint32(4*gid)); got != want {
						return fmt.Errorf("SRAD1 out[%d] = %#x, want %#x", gid, got, want)
					}
				}
			}
			return nil
		},
	}
}

// emitSradNb loads the wrap-around tile neighbour at distance d into rd.
func emitSradNb(b *kernel.Builder, rd, rTid int, d int32) {
	const rTmp = 14 // scratch register shared by the helpers
	b.IAdd(rTmp, isa.Reg(rTid), isa.Imm(d))
	b.And(rTmp, isa.Reg(rTmp), isa.Imm(255))
	b.Shl(rTmp, isa.Reg(rTmp), isa.Imm(2))
	b.LdS(rd, isa.Reg(rTmp), 0)
}

// SRAD2 is the srad_cuda_2 proxy. Its defining trait (§VI-B): the very
// first scratchpad access of every thread lands in the shared region
// (byte 2048 of a 5120-byte block, private bound 512 at t=0.1) and is
// immediately followed by a barrier, so a non-owner block's warps make
// almost no progress until ownership transfers.
var SRAD2 = register(&Spec{
	Name: "SRAD2", Suite: "RODINIA", Kernel: "srad_cuda_2",
	Set: Set2, BlockDim: 256, RegsPerThread: 16, SmemPerBlock: 5120,
	Build: buildSRAD2,
})

const srad2Stage = 2048

func buildSRAD2(scale int) *Instance {
	grid := 280 * scale
	n := grid * 256

	b := kernel.NewBuilder("srad_cuda_2", 256)
	b.Params(2).SetSmem(5120).SetRegs(16)
	const (
		rTid, rGid, rIn, rOut     = 10, 11, 12, 13
		rA, rV, rT, rAcc, rJ, rNb = 0, 1, 2, 3, 4, 5
	)
	b.Mov(rTid, isa.Sreg(isa.SrTid))
	emitGid(b, rGid)
	b.LdParam(rIn, 0)
	b.LdParam(rOut, 1)
	b.Shl(rA, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rIn))
	b.LdG(rV, isa.Reg(rA), 0)
	// First scratchpad touch: deep inside the shared region.
	b.Shl(rT, isa.Reg(rTid), isa.Imm(2))
	b.StS(isa.Reg(rT), srad2Stage, isa.Reg(rV))
	b.Bar()
	b.MovF(rAcc, 0)
	b.MovI(rJ, 0)
	b.Label("sweep")
	b.IAdd(rT, isa.Reg(rTid), isa.Reg(rJ))
	b.And(rT, isa.Reg(rT), isa.Imm(255))
	b.Shl(rT, isa.Reg(rT), isa.Imm(2))
	b.LdS(rNb, isa.Reg(rT), srad2Stage)
	b.FFma(rAcc, isa.Reg(rNb), isa.ImmF(0.0625), isa.Reg(rAcc))
	b.IAdd(rJ, isa.Reg(rJ), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rJ), isa.Imm(16))
	b.BraIf(0, false, "sweep", "fin")
	b.Label("fin")
	b.FFma(rV, isa.Reg(rAcc), isa.ImmF(0.5), isa.Reg(rV))
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rV))
	b.Exit()
	k := b.MustBuild()

	in := make([]float32, n)
	var inAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(131)
			for i := range in {
				in[i] = rng.nextFloat()
			}
			inAddr = m.Alloc(4 * n)
			outAddr = m.Alloc(4 * n)
			m.WriteFloats(inAddr, in)
			launch.Params = []uint32{inAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			for blk := 0; blk < grid; blk += 5 {
				for tid := 0; tid < 256; tid += 41 {
					v := in[blk*256+tid]
					var acc float32
					for j := 0; j < 16; j++ {
						nb := in[blk*256+(tid+j)&255]
						acc = float32(nb*0.0625) + acc
					}
					want := f32bits(float32(acc*0.5) + v)
					gid := blk*256 + tid
					if got := m.Load32(outAddr + uint32(4*gid)); got != want {
						return fmt.Errorf("SRAD2 out[%d] = %#x, want %#x", gid, got, want)
					}
				}
			}
			return nil
		},
	}
}
