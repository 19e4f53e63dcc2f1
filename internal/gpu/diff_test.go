package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"gpushare/internal/asm"
	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/warp"
)

// refMem is a plain map-backed global memory for the reference executor.
type refMem struct{ m map[uint32]uint32 }

func (r *refMem) Load32(a uint32) uint32     { return r.m[a&^3] }
func (r *refMem) Store32(a uint32, v uint32) { r.m[a&^3] = v }

// refExecute runs a kernel grid on the pure functional executor: blocks
// sequentially, warps round-robin one instruction at a time, barriers by
// counting arrivals. It is timing-free, so agreement with the cycle
// simulator demonstrates that schedulers, sharing locks, caches, and
// writeback timing never alter program semantics.
func refExecute(t *testing.T, k *kernel.Kernel, grid int, params []uint32, gm *refMem) {
	t.Helper()
	wpb := k.WarpsPerBlock()
	ops := warp.DecodeKernel(k)
	for cta := 0; cta < grid; cta++ {
		env := warp.Env{
			CtaID: cta, GridDim: grid, BlockDim: k.BlockDim,
			Params: params, Gmem: gm,
			Smem: make([]byte, k.SmemPerBlock+4),
		}
		warps := make([]*warp.State, wpb)
		atBarrier := make([]bool, wpb)
		threadsLeft := k.BlockDim
		for i := range warps {
			lanes := min(threadsLeft, kernel.WarpSize)
			threadsLeft -= lanes
			warps[i] = warp.NewState(k.RegsPerThread, warp.LanesMask(lanes))
			warps[i].BindBlock(&env, i)
		}
		for steps := 0; ; steps++ {
			if steps > 4_000_000 {
				t.Fatal("reference executor did not terminate")
			}
			progressed := false
			arrived, active := 0, 0
			for i, w := range warps {
				if !w.Finished() {
					active++
					if atBarrier[i] {
						arrived++
					}
				}
			}
			if active == 0 {
				break
			}
			if arrived == active { // barrier release
				for i := range atBarrier {
					atBarrier[i] = false
				}
			}
			for i, w := range warps {
				if w.Finished() || atBarrier[i] {
					continue
				}
				pc, _, _ := w.PC()
				res, err := w.Execute(&ops[pc], &env, nil)
				if err != nil {
					t.Fatalf("reference executor: %v", err)
				}
				if res.Kind == warp.ResBarrier && !res.Finished {
					atBarrier[i] = true
				}
				progressed = true
			}
			if !progressed && active > 0 {
				// Everyone at a barrier; loop to release it.
				continue
			}
		}
	}
}

// randomKernel builds a structured random kernel: a prologue, a bounded
// loop with guarded ALU/LDS/STS work, guarded global stores to
// gid-indexed addresses (race-free across threads), and an epilogue.
func randomKernel(rng *rand.Rand, idx int) (*kernel.Kernel, int) {
	blockDim := []int{32, 64, 128, 256}[rng.Intn(4)]
	nregs := 12 + rng.Intn(20)
	smem := 0
	if rng.Intn(2) == 0 {
		smem = 4*blockDim + rng.Intn(3)*1024 // room for one word per thread
	}
	b := kernel.NewBuilder(fmt.Sprintf("fuzz%d", idx), blockDim)
	b.Params(2)
	b.SetRegs(nregs)
	if smem > 0 {
		b.SetSmem(smem)
	}
	const (
		rGid = 0
		rOut = 1
		rAcc = 2
		rI   = 3
		rT   = 4
		rU   = 5
	)
	b.IMad(rGid, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.LdParam(rOut, 0)
	b.MovI(rAcc, int32(rng.Intn(100)))
	// Load an input element.
	b.LdParam(rT, 1)
	b.Shl(rU, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rT), isa.Reg(rU))
	b.LdG(rT, isa.Reg(rT), 0)
	b.IAdd(rAcc, isa.Reg(rAcc), isa.Reg(rT))

	if smem > 0 {
		// Stage something per-thread, barrier, read a neighbour.
		b.Mov(rT, isa.Sreg(isa.SrTid))
		b.Shl(rT, isa.Reg(rT), isa.Imm(2)) // one private word per thread

		b.StS(isa.Reg(rT), 0, isa.Reg(rAcc))
		b.Bar()
		// Read the word staged by a thread in another warp: only the
		// barrier makes this deterministic.
		b.Mov(rU, isa.Sreg(isa.SrTid))
		b.IAdd(rU, isa.Reg(rU), isa.Imm(32))
		b.And(rU, isa.Reg(rU), isa.Imm(int32(blockDim-1)))
		b.Shl(rU, isa.Reg(rU), isa.Imm(2))
		b.LdS(rU, isa.Reg(rU), 0)
		b.IAdd(rAcc, isa.Reg(rAcc), isa.Reg(rU))
	}

	// Bounded loop with a guarded divergent body.
	trips := 1 + rng.Intn(6)
	ops := []isa.Opcode{isa.IADD, isa.ISUB, isa.IMUL, isa.XOR, isa.AND, isa.OR}
	b.MovI(rI, 0)
	b.Label("loop")
	body := 1 + rng.Intn(5)
	for j := 0; j < body; j++ {
		dst := 4 + rng.Intn(nregs-4) // never the loop counter or addresses
		src := 2 + rng.Intn(nregs-2)
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(3) == 0 {
			b.Setp(isa.CmpLT, 1, isa.Sreg(isa.SrLane), isa.Imm(int32(rng.Intn(33))))
			b.Guard(1, rng.Intn(2) == 0)
		}
		b.Emit(isa.Instr{Op: op, GuardPred: isa.NoPred,
			Dst: isa.Reg(dst), A: isa.Reg(src), B: isa.Imm(int32(rng.Intn(64) + 1))})
		// Emit clears a pending guard only when set via Guard; ensure
		// mixed guarded/unguarded sequences both occur.
	}
	b.IAdd(rAcc, isa.Reg(rAcc), isa.Reg(rI))
	b.IAdd(rI, isa.Reg(rI), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Imm(int32(trips)))
	b.BraIf(0, false, "loop", "done")
	b.Label("done")
	// Store the result to out[gid].
	b.Shl(rT, isa.Reg(rGid), isa.Imm(2))
	b.IAdd(rT, isa.Reg(rOut), isa.Reg(rT))
	b.StG(isa.Reg(rT), 0, isa.Reg(rAcc))
	b.Exit()
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k, blockDim
}

// TestDifferentialRandomKernels runs random kernels on the timing
// simulator under several scheduler/sharing configurations and compares
// every output word with the pure reference executor.
func TestDifferentialRandomKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	configs := []func() config.Config{
		func() config.Config { return config.Default() },
		func() config.Config {
			c := config.Default()
			c.Sched = config.SchedGTO
			return c
		},
		func() config.Config {
			c := config.Default()
			c.Sharing = config.ShareRegisters
			c.T = 0.1
			c.Sched = config.SchedOWF
			c.UnrollRegs = true
			c.DynWarp = true
			return c
		},
		func() config.Config {
			c := config.Default()
			c.Sharing = config.ShareScratchpad
			c.T = 0.3
			c.Sched = config.SchedOWF
			return c
		},
		func() config.Config {
			c := config.Default()
			c.Sharing = config.ShareRegisters
			c.T = 0.1
			c.EarlyRegRelease = true
			c.UnrollRegs = true
			return c
		},
	}

	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		k, blockDim := randomKernel(rng, trial)
		grid := 14 + rng.Intn(28)
		n := grid * blockDim
		in := make([]uint32, n)
		for i := range in {
			in[i] = uint32(rng.Int63())
		}

		// Reference execution.
		ref := &refMem{m: map[uint32]uint32{}}
		const outAddr, inAddr = 0x10000, 0x400000
		for i, v := range in {
			ref.Store32(inAddr+uint32(4*i), v)
		}
		refExecute(t, k, grid, []uint32{outAddr, inAddr}, ref)

		for ci, mk := range configs {
			sim := MustNew(mk())
			oa := sim.Mem.Alloc(4 * n)
			ia := sim.Mem.Alloc(4 * n)
			sim.Mem.WriteWords(ia, in)
			if _, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: grid, Params: []uint32{oa, ia}}); err != nil {
				t.Fatalf("trial %d config %d: %v\n%s", trial, ci, err, asm.Print(k))
			}
			for i := 0; i < n; i++ {
				want := ref.Load32(outAddr + uint32(4*i))
				if got := sim.Mem.Load32(oa + uint32(4*i)); got != want {
					t.Fatalf("trial %d config %d: out[%d] = %#x, ref %#x\n%s",
						trial, ci, i, got, want, asm.Print(k))
				}
			}
		}
	}
}
