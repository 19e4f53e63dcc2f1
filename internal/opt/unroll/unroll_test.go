package unroll

import (
	"math/rand"
	"testing"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/warp"
)

// fig7Kernel mirrors the shape of Fig. 7(a): early instructions touch
// high-numbered (declaration-late) registers.
func fig7Kernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("fig7", 32)
	b.SetRegs(36)
	b.Setp(isa.CmpLE, 0, isa.Reg(31), isa.Imm(5)) // "p0, r124" analogue
	b.Mov(16, isa.Reg(31))
	b.Mov(17, isa.Reg(31))
	b.Mov(9, isa.Reg(31))
	b.Mov(18, isa.Reg(31))
	b.Mov(10, isa.Reg(31))
	b.Exit()
	return b.MustBuild()
}

func TestMappingFirstUseOrder(t *testing.T) {
	k := fig7Kernel(t)
	m := Mapping(k)
	// r31 is used first -> becomes r0; destinations follow in order.
	if m[31] != 0 {
		t.Errorf("r31 -> r%d, want r0", m[31])
	}
	if m[16] != 1 || m[17] != 2 || m[9] != 3 || m[18] != 4 || m[10] != 5 {
		t.Errorf("first-use order wrong: 16->%d 17->%d 9->%d 18->%d 10->%d",
			m[16], m[17], m[9], m[18], m[10])
	}
	// The mapping is a permutation of 0..35.
	seen := make([]bool, len(m))
	for _, v := range m {
		if v < 0 || v >= len(m) || seen[v] {
			t.Fatalf("mapping is not a permutation: %v", m)
		}
		seen[v] = true
	}
}

func TestApplyMovesFirstSharedUseLater(t *testing.T) {
	k := fig7Kernel(t)
	private := 3 // floor(36 * 0.1)
	before := FirstSharedUse(k, private)
	after := FirstSharedUse(Apply(k), private)
	if before != 0 {
		t.Fatalf("the Fig. 7(a) kernel touches shared registers at pc %d, want 0", before)
	}
	if after <= before {
		t.Errorf("unrolling did not delay the first shared use: %d -> %d", before, after)
	}
}

func TestApplyPreservesFootprint(t *testing.T) {
	k := fig7Kernel(t)
	u := Apply(k)
	if u.RegsPerThread != k.RegsPerThread || u.BlockDim != k.BlockDim {
		t.Error("unroll changed the kernel footprint")
	}
	if u.MaxUsedReg() >= u.RegsPerThread {
		t.Error("remapped register out of range")
	}
	if err := u.Validate(); err != nil {
		t.Errorf("unrolled kernel invalid: %v", err)
	}
	// Idempotent: a first-use-ordered kernel maps to itself.
	uu := Apply(u)
	for i := range u.Instrs {
		if u.Instrs[i] != uu.Instrs[i] {
			t.Fatalf("Apply not idempotent at pc %d", i)
		}
	}
}

func TestFirstSharedUseNone(t *testing.T) {
	b := kernel.NewBuilder("small", 32)
	b.SetRegs(16)
	b.MovI(0, 1)
	b.IAdd(1, isa.Reg(0), isa.Imm(2))
	b.Exit()
	k := b.MustBuild()
	if got := FirstSharedUse(k, 8); got != -1 {
		t.Errorf("FirstSharedUse = %d, want -1", got)
	}
}

// TestApplyPreservesSemantics runs random straight-line ALU programs
// before and after unrolling and compares every architectural register
// (through the permutation) lane by lane.
func TestApplyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []isa.Opcode{isa.IADD, isa.ISUB, isa.IMUL, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.IMAD}
	for trial := 0; trial < 50; trial++ {
		const nregs = 24
		b := kernel.NewBuilder("rand", 32)
		b.SetRegs(nregs)
		// Seed a few registers from specials so lanes differ.
		b.Mov(rngReg(rng, nregs), isa.Sreg(isa.SrLane))
		b.Mov(rngReg(rng, nregs), isa.Sreg(isa.SrTid))
		for i := 0; i < 30; i++ {
			op := ops[rng.Intn(len(ops))]
			in := isa.Instr{Op: op, GuardPred: isa.NoPred,
				Dst: isa.Reg(rngReg(rng, nregs)),
				A:   isa.Reg(rngReg(rng, nregs)),
				B:   isa.Reg(rngReg(rng, nregs)),
			}
			if op == isa.IMAD {
				in.C = isa.Reg(rngReg(rng, nregs))
			}
			b.Emit(in)
		}
		b.Exit()
		k := b.MustBuild()
		u := Apply(k)
		m := Mapping(k)

		run := func(kk *kernel.Kernel) *warp.State {
			w := warp.NewState(kk.RegsPerThread, warp.LanesMask(32))
			env := &warp.Env{BlockDim: 32, GridDim: 1}
			w.BindBlock(env, 0)
			ops := warp.DecodeKernel(kk)
			for !w.Finished() {
				pc, _, _ := w.PC()
				w.Execute(&ops[pc], env, nil)
			}
			return w
		}
		w1 := run(k)
		w2 := run(u)
		for r := 0; r < nregs; r++ {
			for lane := 0; lane < 32; lane++ {
				if w1.Reg(r, lane) != w2.Reg(m[r], lane) {
					t.Fatalf("trial %d: r%d lane %d: %d vs remapped r%d %d",
						trial, r, lane, w1.Reg(r, lane), m[r], w2.Reg(m[r], lane))
				}
			}
		}
	}
}

func rngReg(rng *rand.Rand, n int) int { return rng.Intn(n) }
