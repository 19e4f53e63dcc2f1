package workloads

import (
	"fmt"

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

// emitTotalThreads emits rTot = nctaid*ntid.
func emitTotalThreads(b *kernel.Builder, rTot int) {
	b.IMul(rTot, isa.Sreg(isa.SrNctaid), isa.Sreg(isa.SrNtid))
}

// Backprop is the bpnn_adjust_weights_cuda proxy: a streaming weight
// update, w[i] += 0.3*delta[i] + 0.3*oldw[i], four grid-strided elements
// per thread. 256 threads/block, 24 registers/thread.
var Backprop = register(&Spec{
	Name: "backprop", Suite: "GPGPU-Sim", Kernel: "bpnn_adjust_weights_cuda",
	Set: Set1, BlockDim: 256, RegsPerThread: 24,
	Build: buildBackprop,
})

const backpropElems = 2

func buildBackprop(scale int) *Instance {
	grid := 252 * scale
	n := grid * 256 * backpropElems

	b := kernel.NewBuilder("bpnn_adjust_weights_cuda", 256)
	b.Params(3).SetRegs(24)
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
	for e := 0; e < backpropElems; e++ {
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
		if e != backpropElems-1 {
			b.IAdd(rOff, isa.Reg(rOff), isa.Reg(rStride))
		}
	}
	b.Exit()
	k := b.MustBuild()

	var wAddr, owAddr, dAddr uint32
	w := make([]float32, n)
	ow := make([]float32, n)
	d := make([]float32, n)
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(11)
			for i := range w {
				w[i] = rng.nextFloat()
				ow[i] = rng.nextFloat()
				d[i] = rng.nextFloat() - 0.5
			}
			wAddr = m.Alloc(4 * n)
			owAddr = m.Alloc(4 * n)
			dAddr = m.Alloc(4 * n)
			m.WriteFloats(wAddr, w)
			m.WriteFloats(owAddr, ow)
			m.WriteFloats(dAddr, d)
			launch.Params = []uint32{wAddr, owAddr, dAddr}
		},
		Check: func(m *mem.Global) error {
			for i := 0; i < n; i++ {
				t1 := float32(d[i]*0.3) + w[i]
				wantW := float32(ow[i]*0.3) + t1
				wantO := d[i] * 0.3
				if got := m.Load32(wAddr + uint32(4*i)); got != f32bits(wantW) {
					return fmt.Errorf("w[%d] = %#x, want %#x", i, got, f32bits(wantW))
				}
				if got := m.Load32(owAddr + uint32(4*i)); got != f32bits(wantO) {
					return fmt.Errorf("oldw[%d] = %#x, want %#x", i, got, f32bits(wantO))
				}
			}
			return nil
		},
	}
}

// BTree is the findRangeK proxy: every thread walks a 13-level implicit
// heap, branching on key comparisons, with a guarded early exit that
// diverges the warp. 508 threads/block (16 warps, the last partial),
// 24 registers/thread. Lower tree levels produce heavily uncoalesced
// loads, making the walk memory-latency-bound.
var BTree = register(&Spec{
	Name: "b+tree", Suite: "GPGPU-Sim", Kernel: "findRangeK",
	Set: Set1, BlockDim: 508, RegsPerThread: 24,
	Build: buildBTree,
})

const (
	btreeLevels = 11      // walk depth per query
	btreeNodes  = 1 << 17 // node pool (512KB): deep levels miss the L2
	btreeStarts = 128     // scattered shallow starting positions
)

func buildBTree(scale int) *Instance {
	grid := 126 * scale
	threads := grid * 508

	b := kernel.NewBuilder("findRangeK", 508)
	b.Params(3).SetRegs(24)
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
	b.Setp(isa.CmpLT, 0, isa.Reg(rL), isa.Imm(btreeLevels-1))
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

	tree := make([]uint32, btreeNodes)
	queries := make([]uint32, threads)
	var treeAddr, outAddr, qAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(23)
			for i := range tree {
				tree[i] = uint32(rng.next())
			}
			for i := range queries {
				queries[i] = uint32(rng.next())
			}
			treeAddr = m.Alloc(4 * btreeNodes)
			outAddr = m.Alloc(4 * threads)
			qAddr = m.Alloc(4 * threads)
			m.WriteWords(treeAddr, tree)
			m.WriteWords(qAddr, queries)
			launch.Params = []uint32{treeAddr, outAddr, qAddr}
		},
		Check: func(m *mem.Global) error {
			for t := 0; t < threads; t++ {
				q := queries[t]
				pos := ((uint32(t) >> 5) * 2654435769) & (btreeStarts - 1)
				for l := 0; l < btreeLevels-1; l++ {
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
				if got := m.Load32(outAddr + uint32(4*t)); got != pos {
					return fmt.Errorf("b+tree out[%d] = %d, want %d", t, got, pos)
				}
			}
			return nil
		},
	}
}

// Hotspot is the calculate_temp proxy: an iterative thermal stencil.
// Each of its 12 time steps streams one fresh power sample from global
// memory and runs a long dependent floating-point chain on register-
// resident state — compute-bound, but with enough memory latency in the
// chain that the baseline's 24 warps per SM cannot hide it all (the
// paper's hotspot gains 21.8% from sharing). 256 threads/block, 36
// registers/thread.
var Hotspot = register(&Spec{
	Name: "hotspot", Suite: "RODINIA", Kernel: "calculate_temp",
	Set: Set1, BlockDim: 256, RegsPerThread: 36,
	Build: buildHotspot,
})

const (
	hotspotSteps  = 12
	hotspotSlices = 512  // per-warp power-tile slices
	hotspotSliceB = 2048 // bytes per slice (16 cache lines)
)

func buildHotspot(scale int) *Instance {
	grid := 252 * scale
	n := grid * 256

	b := kernel.NewBuilder("calculate_temp", 256)
	b.Params(3).SetRegs(36)
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
	b.And(rStride, isa.Reg(rStride), isa.Imm(hotspotSlices-1))
	b.IMad(rPow, isa.Reg(rStride), isa.Imm(hotspotSliceB), isa.Reg(rPow))
	b.Mov(rShared, isa.Sreg(isa.SrCtaid))
	b.And(rShared, isa.Reg(rShared), isa.Imm(hotspotSlices-1))
	b.IMul(rShared, isa.Reg(rShared), isa.Imm(hotspotSliceB))
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
	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Imm(hotspotSteps))
	b.BraIf(0, false, "step", "done")
	b.Label("done")
	b.Shl(rAdr, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rAdr, isa.Reg(rOut), isa.Reg(rAdr))
	b.FAdd(rT, isa.Reg(rT), isa.Reg(rA))
	b.StG(isa.Reg(rAdr), 0, isa.Reg(rT))
	b.Exit()
	k := b.MustBuild()

	temp := make([]float32, n+2)
	pow := make([]float32, hotspotSlices*hotspotSliceB/4)
	var tempAddr, powAddr, outAddr uint32
	launch := &kernel.Launch{Kernel: k, GridDim: grid}
	return &Instance{
		Launch: launch,
		Setup: func(m *mem.Global) {
			rng := splitmix64(31)
			for i := range temp {
				temp[i] = 60 + 20*rng.nextFloat()
			}
			for i := range pow {
				pow[i] = rng.nextFloat()
			}
			tempAddr = m.Alloc(4*(n+2)) + 4 // leave room for [-4] loads
			powAddr = m.Alloc(4 * len(pow))
			outAddr = m.Alloc(4 * n)
			m.WriteFloats(tempAddr, temp[:n])
			m.WriteFloats(powAddr, pow)
			launch.Params = []uint32{tempAddr, powAddr, outAddr}
		},
		Check: func(m *mem.Global) error {
			load := func(addr uint32) float32 { return mem.F32FromBits(m.Load32(addr)) }
			for gid := 0; gid < n; gid += 997 { // spot-check (full loop is hot)
				t := load(tempAddr + uint32(4*gid))
				nv := load(tempAddr + uint32(4*gid) - 4)
				s := load(tempAddr + uint32(4*gid) + 4)
				var acc float32
				slice := (gid >> 5) & (hotspotSlices - 1)
				mask := 7
				if lane := gid & 31; lane < 16 {
					slice = (gid / 256) & (hotspotSlices - 1) // block-shared slice
					mask = 15
				}
				lane := gid & 31
				for i := 0; i < hotspotSteps; i++ {
					p := pow[slice*(hotspotSliceB/4)+((i*5+lane)&mask)*32]
					d1 := nv + s
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
					s = float32(s * 0.998)
				}
				want := f32bits(t + acc)
				if got := m.Load32(outAddr + uint32(4*gid)); got != want {
					return fmt.Errorf("hotspot out[%d] = %#x, want %#x", gid, got, want)
				}
			}
			return nil
		},
	}
}
