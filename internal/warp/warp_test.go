package warp

import (
	"strings"
	"testing"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// fakeMem is a tiny GlobalMem for executor tests.
type fakeMem struct{ m map[uint32]uint32 }

func newFakeMem() *fakeMem                    { return &fakeMem{m: map[uint32]uint32{}} }
func (f *fakeMem) Load32(a uint32) uint32     { return f.m[a&^3] }
func (f *fakeMem) Store32(a uint32, v uint32) { f.m[a&^3] = v }

func testEnv() (*Env, *fakeMem) {
	fm := newFakeMem()
	return &Env{
		CtaID:    3,
		GridDim:  10,
		BlockDim: 64,
		Params:   []uint32{111, 222},
		Gmem:     fm,
		Smem:     make([]byte, 512),
	}, fm
}

// mustExec runs one instruction and fails the test on a functional fault.
func mustExec(t *testing.T, w *State, in *isa.Instr, env *Env) Result {
	t.Helper()
	op := Decode(in)
	res, err := w.Execute(&op, env, nil)
	if err != nil {
		t.Fatalf("Execute(%s): %v", in.Op, err)
	}
	return res
}

func TestExecuteSpecials(t *testing.T) {
	env, _ := testEnv()
	w := NewState(8, LanesMask(32))
	w.BindBlock(env, 1)
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Sreg(isa.SrTid)}, env)
	if got := w.Reg(0, 5); got != 32+5 {
		t.Errorf("tid lane 5 = %d, want 37", got)
	}
	for spec, want := range map[isa.Special]uint32{
		isa.SrCtaid: 3, isa.SrNtid: 64, isa.SrNctaid: 10, isa.SrWarpCta: 1,
	} {
		mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Sreg(spec)}, env)
		if got := w.Reg(1, 0); got != want {
			t.Errorf("%s = %d, want %d", spec, got, want)
		}
	}
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(2), A: isa.Sreg(isa.SrLane)}, env)
	if got := w.Reg(2, 17); got != 17 {
		t.Errorf("lane = %d, want 17", got)
	}
}

func TestExecuteGuardedALU(t *testing.T) {
	env, _ := testEnv()
	w := NewState(8, LanesMask(32))
	w.BindBlock(env, 0)
	// p0 = lane < 4
	mustExec(t, w, &isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Cmp: isa.CmpLT,
		Dst: isa.Pred(0), A: isa.Sreg(isa.SrLane), B: isa.Imm(4)}, env)
	if w.Pred(0) != 0xf {
		t.Fatalf("pred = %#x, want 0xf", w.Pred(0))
	}
	// @p0 r1 = 99; others keep 0.
	res := mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: 0, Dst: isa.Reg(1), A: isa.Imm(99)}, env)
	if res.Active != 0xf {
		t.Fatalf("active = %#x", res.Active)
	}
	if w.Reg(1, 2) != 99 || w.Reg(1, 10) != 0 {
		t.Errorf("guarded write wrong: lane2=%d lane10=%d", w.Reg(1, 2), w.Reg(1, 10))
	}
	// @!p0 r1 = 7.
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: 0, GuardNeg: true, Dst: isa.Reg(1), A: isa.Imm(7)}, env)
	if w.Reg(1, 2) != 99 || w.Reg(1, 10) != 7 {
		t.Errorf("negated guard wrong: lane2=%d lane10=%d", w.Reg(1, 2), w.Reg(1, 10))
	}
}

func TestExecuteParamLoad(t *testing.T) {
	env, _ := testEnv()
	w := NewState(4, LanesMask(32))
	w.BindBlock(env, 0)
	mustExec(t, w, &isa.Instr{Op: isa.LDP, GuardPred: isa.NoPred, Dst: isa.Reg(0), Off: 1}, env)
	if w.Reg(0, 31) != 222 {
		t.Errorf("param = %d", w.Reg(0, 31))
	}
}

func TestExecuteGlobalLoadStore(t *testing.T) {
	env, fm := testEnv()
	w := NewState(8, LanesMask(32))
	w.BindBlock(env, 0)
	// r0 = lane*4 + 1000
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Sreg(isa.SrLane)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.SHL, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Reg(0), B: isa.Imm(2)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.IADD, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Reg(0), B: isa.Imm(1000)}, env)
	// st.global [r0+0] = lane id (r1)
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Sreg(isa.SrLane)}, env)
	res := mustExec(t, w, &isa.Instr{Op: isa.STG, GuardPred: isa.NoPred, A: isa.Reg(0), B: isa.Reg(1)}, env)
	if !res.IsStore || res.GlobalAddrs == nil {
		t.Fatal("store result missing address info")
	}
	if fm.m[1000+4*9] != 9 {
		t.Errorf("store lane 9 = %d", fm.m[1000+4*9])
	}
	// ld.global r2, [r0+4] -> next lane's value (lane 31 reads junk 0).
	mustExec(t, w, &isa.Instr{Op: isa.LDG, GuardPred: isa.NoPred, Dst: isa.Reg(2), A: isa.Reg(0), Off: 4}, env)
	if w.Reg(2, 5) != 6 || w.Reg(2, 31) != 0 {
		t.Errorf("load wrong: lane5=%d lane31=%d", w.Reg(2, 5), w.Reg(2, 31))
	}
}

func TestExecuteSharedMemAndBankInfo(t *testing.T) {
	env, _ := testEnv()
	w := NewState(8, LanesMask(32))
	w.BindBlock(env, 0)
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Sreg(isa.SrLane)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.SHL, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Reg(0), B: isa.Imm(2)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Imm(5)}, env)
	res := mustExec(t, w, &isa.Instr{Op: isa.STS, GuardPred: isa.NoPred, A: isa.Reg(0), B: isa.Reg(1)}, env)
	if res.SharedAddrs == nil || res.SharedAddrs[3] != 12 {
		t.Fatal("shared store addresses missing")
	}
	mustExec(t, w, &isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(2), A: isa.Reg(0)}, env)
	if w.Reg(2, 30) != 5 {
		t.Errorf("shared load = %d", w.Reg(2, 30))
	}
}

func TestExecuteBarrierErrorsWhenDiverged(t *testing.T) {
	env, _ := testEnv()
	w := NewState(4, LanesMask(32))
	w.BindBlock(env, 0)
	// Diverge with a guarded branch, then try a barrier.
	mustExec(t, w, &isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Cmp: isa.CmpLT,
		Dst: isa.Pred(0), A: isa.Sreg(isa.SrLane), B: isa.Imm(16)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.BRA, GuardPred: 0, Target: 5, Reconv: 6}, env)
	bar := Decode(&isa.Instr{Op: isa.BAR, GuardPred: isa.NoPred})
	_, err := w.Execute(&bar, env, nil)
	if err == nil {
		t.Fatal("barrier while diverged must report an error")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("error %q does not explain the divergence", err)
	}
}

func TestExecuteScratchpadOutOfBounds(t *testing.T) {
	env, _ := testEnv()
	w := NewState(4, LanesMask(32))
	w.BindBlock(env, 0)
	// Address far beyond the 512-byte scratchpad.
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Imm(4096)}, env)
	lds := Decode(&isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Reg(0)})
	_, err := w.Execute(&lds, env, nil)
	if err == nil {
		t.Fatal("out-of-bounds scratchpad load must report an error")
	}
	if !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("error %q does not mention the bounds violation", err)
	}
}

func TestEffAddrsMatchesExecute(t *testing.T) {
	env, _ := testEnv()
	w := NewState(8, LanesMask(32))
	w.BindBlock(env, 0)
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Sreg(isa.SrLane)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.SHL, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Reg(0), B: isa.Imm(3)}, env)
	in := isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Reg(0), Off: 16}
	var pre [kernel.WarpSize]uint32
	op := Decode(&in)
	active := w.EffAddrs(&op, &pre)
	res, err := w.Execute(&op, env, nil) // nil: Execute computes its own
	if err != nil {
		t.Fatal(err)
	}
	if active != res.Active {
		t.Fatalf("active mismatch: %#x vs %#x", active, res.Active)
	}
	for lane := 0; lane < 32; lane++ {
		if res.Active&(1<<lane) != 0 && pre[lane] != res.SharedAddrs[lane] {
			t.Fatalf("lane %d: pre %d post %d", lane, pre[lane], res.SharedAddrs[lane])
		}
	}
}

func TestPartialLastWarp(t *testing.T) {
	env, _ := testEnv()
	w := NewState(4, LanesMask(28)) // 28-lane warp, like b+tree's last warp
	res := mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Imm(1)}, env)
	if res.Active != LanesMask(28) {
		t.Fatalf("active = %#x", res.Active)
	}
	if !mustExec(t, w, &isa.Instr{Op: isa.EXIT, GuardPred: isa.NoPred}, env).Finished {
		t.Fatal("exit should finish the partial warp")
	}
}

func TestResetClearsState(t *testing.T) {
	env, _ := testEnv()
	w := NewState(4, LanesMask(32))
	w.BindBlock(env, 0)
	mustExec(t, w, &isa.Instr{Op: isa.MOV, GuardPred: isa.NoPred, Dst: isa.Reg(3), A: isa.Imm(42)}, env)
	mustExec(t, w, &isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Cmp: isa.CmpEQ,
		Dst: isa.Pred(2), A: isa.Imm(1), B: isa.Imm(1)}, env)
	w.Reset(LanesMask(16))
	if w.Reg(3, 0) != 0 || w.Pred(2) != 0 {
		t.Error("Reset must clear registers and predicates")
	}
	if pc, mask, ok := w.PC(); !ok || pc != 0 || mask != LanesMask(16) {
		t.Errorf("Reset PC state: pc=%d mask=%#x ok=%v", pc, mask, ok)
	}
}
