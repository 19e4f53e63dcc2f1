package kernel

import (
	"strings"
	"testing"

	"gpushare/internal/isa"
)

func buildLoop(t *testing.T) *Kernel {
	t.Helper()
	b := NewBuilder("loop", 64)
	b.Params(1)
	b.MovI(0, 0)
	b.Label("top")
	b.IAdd(0, isa.Reg(0), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(0), isa.Imm(10))
	b.BraIf(0, false, "top", "out")
	b.Label("out")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return k
}

func TestBuilderLabels(t *testing.T) {
	k := buildLoop(t)
	bra := k.Instrs[3]
	if bra.Op != isa.BRA || bra.Target != 1 || bra.Reconv != 4 {
		t.Fatalf("branch resolution wrong: %+v", bra)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad", 32)
	b.Bra("nowhere")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("expected undefined-label error, got %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("bad", 32)
	b.Label("x")
	b.Label("x")
	b.Exit()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestBuilderGuardAppliesOnce(t *testing.T) {
	b := NewBuilder("g", 32)
	b.Guard(2, true)
	b.MovI(0, 1)
	b.MovI(1, 2)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !k.Instrs[0].Guarded() || k.Instrs[0].GuardPred != 2 || !k.Instrs[0].GuardNeg {
		t.Errorf("first instr guard missing: %+v", k.Instrs[0])
	}
	if k.Instrs[1].Guarded() {
		t.Errorf("guard leaked to second instruction: %+v", k.Instrs[1])
	}
}

func TestRegsPerBlockWarpGranularity(t *testing.T) {
	// b+tree-like: 508 threads occupy 16 full warps of registers.
	k := &Kernel{Name: "k", BlockDim: 508, RegsPerThread: 24}
	if got := k.WarpsPerBlock(); got != 16 {
		t.Errorf("WarpsPerBlock = %d, want 16", got)
	}
	if got := k.RegsPerBlock(); got != 16*32*24 {
		t.Errorf("RegsPerBlock = %d, want %d", got, 16*32*24)
	}
}

func TestValidateCatches(t *testing.T) {
	base := func() *Kernel {
		return &Kernel{
			Name: "v", BlockDim: 32, RegsPerThread: 4, NumParams: 1,
			Instrs: []isa.Instr{
				{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Imm(1)},
				{Op: isa.EXIT, GuardPred: isa.NoPred},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Kernel)
	}{
		{"zero blockdim", func(k *Kernel) { k.BlockDim = 0 }},
		{"empty", func(k *Kernel) { k.Instrs = nil }},
		{"register overflow", func(k *Kernel) { k.Instrs[0].Dst = isa.Reg(4) }},
		{"branch target range", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.BRA, GuardPred: isa.NoPred, Target: 99, Reconv: 1}
		}},
		{"reconv range", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.BRA, GuardPred: isa.NoPred, Target: 1, Reconv: 99}
		}},
		{"setp non-pred dst", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Imm(1), B: isa.Imm(2)}
		}},
		{"selp non-pred selector", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.SELP, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Imm(1), B: isa.Imm(2), C: isa.Reg(1)}
		}},
		{"param out of range", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.LDP, GuardPred: isa.NoPred, Dst: isa.Reg(0), Off: 3}
		}},
		{"global load without a register destination", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.LDG, GuardPred: isa.NoPred, Dst: isa.Imm(0), A: isa.Reg(1)}
		}},
		{"smem access without smem", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Reg(1)}
		}},
		{"guard pred range", func(k *Kernel) { k.Instrs[0].GuardPred = 9 }},
		{"pred operand range", func(k *Kernel) {
			k.Instrs[0] = isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Dst: isa.Pred(9), A: isa.Imm(1), B: isa.Imm(2)}
		}},
	}
	for _, c := range cases {
		k := base()
		c.mutate(k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLaunchValidate(t *testing.T) {
	k := buildLoop(t)
	good := &Launch{Kernel: k, GridDim: 4, Params: []uint32{1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid launch rejected: %v", err)
	}
	if err := (&Launch{Kernel: k, GridDim: 0, Params: []uint32{1}}).Validate(); err == nil {
		t.Error("zero grid accepted")
	}
	if err := (&Launch{Kernel: k, GridDim: 4}).Validate(); err == nil {
		t.Error("missing params accepted")
	}
	if err := (&Launch{}).Validate(); err == nil {
		t.Error("nil kernel accepted")
	}
	if got := good.TotalThreads(); got != 4*64 {
		t.Errorf("TotalThreads = %d", got)
	}
}

func TestBuilderDefaultRegCount(t *testing.T) {
	b := NewBuilder("r", 32)
	b.MovI(5, 1)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.RegsPerThread != 6 {
		t.Errorf("RegsPerThread = %d, want 6 (max used + 1)", k.RegsPerThread)
	}
}
