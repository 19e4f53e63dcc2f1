package warp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/workloads"
)

// This file keeps the per-lane interpreter the row-wise executor
// replaced — one readOperand per source per lane, one isa.Eval per lane
// — as the reference oracle, and checks Execute against it instruction
// by instruction. The one deliberate difference: the old default branch
// let a NOP zero r0 in the active lanes (its absent destination decoded
// as register 0); a NOP now writes nothing.

// refOperand evaluates a source operand for one lane straight from the
// environment, independently of the rows BindBlock fills.
func refOperand(w *State, o isa.Operand, lane int, env *Env) uint32 {
	switch o.Kind {
	case isa.OpReg:
		return w.Reg(int(o.Reg), lane)
	case isa.OpImm:
		return uint32(o.Imm)
	case isa.OpSpecial:
		switch o.Spec {
		case isa.SrTid:
			t := w.WarpInCta*kernel.WarpSize + lane
			if env.dimY() > 1 {
				return uint32(t % env.BlockDim)
			}
			return uint32(t)
		case isa.SrTidY:
			return uint32((w.WarpInCta*kernel.WarpSize + lane) / env.BlockDim)
		case isa.SrCtaid:
			return uint32(env.CtaID)
		case isa.SrCtaidY:
			return uint32(env.CtaIDY)
		case isa.SrNtid:
			return uint32(env.BlockDim)
		case isa.SrNtidY:
			return uint32(env.dimY())
		case isa.SrNctaid:
			return uint32(env.GridDim)
		case isa.SrNctaidY:
			if env.GridDimY > 1 {
				return uint32(env.GridDimY)
			}
			return 1
		case isa.SrLane:
			return uint32(lane)
		case isa.SrWarpCta:
			return uint32(w.WarpInCta)
		}
	}
	return 0
}

// refExecute is the per-lane executor as it stood before the row-wise
// one, modulo the NOP fix above.
func refExecute(w *State, in *isa.Instr, env *Env) (Result, error) {
	_, mask := w.simt.Top()
	active := mask
	if in.Guarded() {
		pm := w.preds[in.GuardPred]
		if in.GuardNeg {
			pm = ^pm
		}
		active &= pm
	}
	res := Result{Kind: ResNormal, Active: active}
	on := func(lane int) bool { return active&(1<<lane) != 0 }

	switch in.Op {
	case isa.BRA:
		w.simt.Branch(active, in.Target, in.Reconv)
		res.Finished = w.simt.Done()
		return res, nil
	case isa.EXIT:
		res.Kind = ResExit
		res.Finished = w.simt.ExitLanes(active)
		return res, nil
	case isa.BAR:
		if w.simt.Depth() > 1 {
			return res, fmt.Errorf("warp %d: barrier executed while diverged (depth %d); "+
				"kernels must only place bar.sync at convergence points", w.ID, w.simt.Depth())
		}
		res.Kind = ResBarrier
		w.simt.Advance()
		res.Finished = w.simt.Done()
		return res, nil
	case isa.NOP:
	case isa.SETP:
		p := int(in.Dst.Reg)
		var set uint32
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if on(lane) && isa.EvalCmp(in.Cmp, refOperand(w, in.A, lane, env), refOperand(w, in.B, lane, env)) {
				set |= 1 << lane
			}
		}
		w.preds[p] = (w.preds[p] &^ active) | set
	case isa.SELP:
		pm := w.preds[in.C.Reg]
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if !on(lane) {
				continue
			}
			var c uint32
			if pm&(1<<lane) != 0 {
				c = 1
			}
			w.SetReg(int(in.Dst.Reg), lane, isa.Eval(isa.SELP,
				refOperand(w, in.A, lane, env), refOperand(w, in.B, lane, env), c))
		}
	case isa.LDP:
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if on(lane) {
				w.SetReg(int(in.Dst.Reg), lane, env.Params[in.Off])
			}
		}
	case isa.LDG, isa.STG, isa.LDS, isa.STS:
		addrs := new(isa.Row)
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if on(lane) {
				addrs[lane] = refOperand(w, in.A, lane, env) + uint32(in.Off)
			}
		}
		if isa.IsGlobalMem(in.Op) {
			res.GlobalAddrs = addrs
		} else {
			res.SharedAddrs = addrs
		}
		res.IsStore = in.Op == isa.STG || in.Op == isa.STS
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if !on(lane) {
				continue
			}
			a := addrs[lane] &^ 3
			if isa.IsSharedMem(in.Op) && int64(a)+4 > int64(len(env.Smem)) {
				what := map[isa.Opcode]string{isa.LDS: "load", isa.STS: "store"}[in.Op]
				return res, fmt.Errorf("warp %d lane %d: scratchpad %s at byte %d out of bounds (size %d)",
					w.ID, lane, what, addrs[lane], len(env.Smem))
			}
			switch in.Op {
			case isa.LDG:
				w.SetReg(int(in.Dst.Reg), lane, env.Gmem.Load32(addrs[lane]))
			case isa.STG:
				env.Gmem.Store32(addrs[lane], refOperand(w, in.B, lane, env))
			case isa.LDS:
				w.SetReg(int(in.Dst.Reg), lane, uint32(env.Smem[a])|uint32(env.Smem[a+1])<<8|
					uint32(env.Smem[a+2])<<16|uint32(env.Smem[a+3])<<24)
			case isa.STS:
				v := refOperand(w, in.B, lane, env)
				env.Smem[a], env.Smem[a+1], env.Smem[a+2], env.Smem[a+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
		}
	default:
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if on(lane) {
				w.SetReg(int(in.Dst.Reg), lane, isa.Eval(in.Op,
					refOperand(w, in.A, lane, env), refOperand(w, in.B, lane, env), refOperand(w, in.C, lane, env)))
			}
		}
	}
	w.simt.Advance()
	res.Finished = w.simt.Done()
	return res, nil
}

const diffRegs = 6 // registers per thread in the differential machines

// diffMachine is one side of a differential run: a warp plus the
// memories it can reach.
type diffMachine struct {
	w   *State
	env *Env
	gm  *fakeMem
}

// newDiffMachine builds a warp in a reproducible pseudo-random state.
// lanes is the existence mask; top, when it differs from lanes, becomes
// the active mask of a diverged region pushed on the SIMT stack.
// Register 2 holds in-bounds word addresses so memory instructions
// exercise the success path as well as the out-of-bounds error.
func newDiffMachine(seed int64, lanes, top uint32) *diffMachine {
	rng := rand.New(rand.NewSource(seed))
	gm := newFakeMem()
	env := &Env{
		CtaID: 3, CtaIDY: 2, GridDim: 10, GridDimY: 4, BlockDim: 16, BlockDimY: 8,
		Params: []uint32{111, 222, 333}, Gmem: gm, Smem: make([]byte, 512),
	}
	if seed%2 == 0 {
		env.CtaIDY, env.GridDimY, env.BlockDim, env.BlockDimY = 0, 0, 128, 0 // 1-D launch
	}
	rng.Read(env.Smem)
	w := NewState(diffRegs, lanes)
	w.ID = 5
	w.BindBlock(env, 1+int(seed%3))
	for i := range w.regs {
		w.regs[i] = rng.Uint32()
		if rng.Intn(4) == 0 {
			w.regs[i] = uint32(rng.Intn(64)) // small values: in-range shifts, equal compares
		}
	}
	for lane := 0; lane < kernel.WarpSize; lane++ {
		w.SetReg(2, lane, uint32(4*lane+rng.Intn(3)))
		gm.m[uint32(4*lane)] = rng.Uint32()
	}
	for i := range w.preds {
		w.preds[i] = rng.Uint32()
	}
	if top != lanes {
		w.simt.stack = append(w.simt.stack, simtEntry{pc: 4, rpc: 9, mask: top & lanes})
		w.simt.stack[0].pc = 9
	}
	return &diffMachine{w: w, env: env, gm: gm}
}

// diffExecute runs in on two identically prepared machines, once
// through Decode+Execute and once through the reference, and reports
// any difference in the result, the error, or the machine state.
func diffExecute(t *testing.T, in *isa.Instr, seed int64, lanes, top uint32) {
	t.Helper()
	got, want := newDiffMachine(seed, lanes, top), newDiffMachine(seed, lanes, top)
	op := Decode(in)
	gres, gerr := got.w.Execute(&op, got.env, nil)
	wres, werr := refExecute(want.w, in, want.env)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (seed %d lanes %#x top %#x): %s", in, seed, lanes, top, fmt.Sprintf(format, args...))
	}
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		fail("error %v, reference %v", gerr, werr)
	}
	for _, a := range []struct {
		name      string
		got, want *isa.Row
	}{{"global", gres.GlobalAddrs, wres.GlobalAddrs}, {"shared", gres.SharedAddrs, wres.SharedAddrs}} {
		if (a.got == nil) != (a.want == nil) {
			fail("%s address row presence differs", a.name)
		}
		for lane := 0; a.got != nil && lane < kernel.WarpSize; lane++ {
			if wres.Active&(1<<lane) != 0 && a.got[lane] != a.want[lane] {
				fail("%s address lane %d = %#x, reference %#x", a.name, lane, a.got[lane], a.want[lane])
			}
		}
	}
	gres.GlobalAddrs, gres.SharedAddrs, wres.GlobalAddrs, wres.SharedAddrs = nil, nil, nil, nil
	if gres != wres {
		fail("result %+v, reference %+v", gres, wres)
	}
	if !reflect.DeepEqual(got.w.regs, want.w.regs) {
		for i := range got.w.regs {
			if g, w := got.w.regs[i], want.w.regs[i]; g != w && !(nanLatitude(in.Op) && isNaN32(g) && isNaN32(w)) {
				fail("r%d lane %d = %#x, reference %#x", i/kernel.WarpSize, i%kernel.WarpSize, got.w.regs[i], want.w.regs[i])
			}
		}
	}
	if got.w.preds != want.w.preds {
		fail("predicates %#x, reference %#x", got.w.preds, want.w.preds)
	}
	if !reflect.DeepEqual(got.w.simt.stack, want.w.simt.stack) {
		fail("SIMT stack %+v, reference %+v", got.w.simt.stack, want.w.simt.stack)
	}
	if !reflect.DeepEqual(got.env.Smem, want.env.Smem) {
		fail("scratchpad contents differ")
	}
	if !reflect.DeepEqual(got.gm.m, want.gm.m) {
		fail("global memory contents differ")
	}
}

// nanLatitude reports the opcodes whose result, when several source
// operands are NaN, may carry either operand's payload: the float
// adds and multiplies compile to two-operand SSE instructions whose
// operand order the compiler is free to choose (see isa.aluRow).
func nanLatitude(op isa.Opcode) bool {
	return op == isa.FADD || op == isa.FSUB || op == isa.FMUL || op == isa.FFMA
}

func isNaN32(bits uint32) bool { return bits&0x7f800000 == 0x7f800000 && bits&0x007fffff != 0 }

// diffMasks are the (existence, active) mask pairs every instruction is
// tried under: full, single lane, random divergence, the partial last
// warp of a block, and divergence inside a partial warp. An empty
// active set comes from the guards (a predicate register is random, so
// guarded runs cover it with the zeroed-predicate machine below).
func diffMasks(rng *rand.Rand) [][2]uint32 {
	full := LanesMask(32)
	return [][2]uint32{
		{full, full},
		{full, 1 << uint(rng.Intn(32))},
		{full, rng.Uint32() | 1},
		{LanesMask(28), LanesMask(28)},
		{LanesMask(20), rng.Uint32()&LanesMask(20) | 2},
	}
}

// TestExecuteMatchesReference is the exhaustive differential test:
// every opcode × every operand shape for A and B (register aliasing the
// destination, other registers, immediate, each special, absent) × mask
// × guard, against the per-lane reference.
func TestExecuteMatchesReference(t *testing.T) {
	shapes := []isa.Operand{
		isa.Reg(1), // aliases the destination
		isa.Reg(2), isa.Reg(3), isa.Imm(8), isa.Imm(-3), isa.ImmF(1.5), isa.None,
	}
	for s := isa.Special(0); s < isa.NumSpecials; s++ {
		shapes = append(shapes, isa.Sreg(s))
	}
	guards := []struct {
		pred int8
		neg  bool
	}{{isa.NoPred, false}, {2, false}, {2, true}}
	rng := rand.New(rand.NewSource(1))
	n := 0
	for op := isa.Opcode(0); op.Valid(); op++ {
		for _, a := range shapes {
			for _, b := range shapes {
				in := isa.Instr{Op: op, Dst: isa.Reg(1), A: a, B: b, C: shapes[rng.Intn(len(shapes))],
					Cmp: isa.CmpOp(rng.Intn(10)), Off: int32(4 * rng.Intn(4)), Target: 7, Reconv: 9}
				switch op {
				case isa.SETP:
					in.Dst = isa.Pred(rng.Intn(kernel.MaxPredRegs))
				case isa.SELP:
					in.C = isa.Pred(rng.Intn(kernel.MaxPredRegs))
				case isa.LDP:
					in.Off = int32(rng.Intn(3))
				}
				for _, g := range guards {
					in.GuardPred, in.GuardNeg = g.pred, g.neg
					for _, m := range diffMasks(rng) {
						diffExecute(t, &in, int64(n), m[0], m[1])
						n++
					}
				}
			}
		}
	}
	t.Logf("%d instruction executions compared", n)
}

// TestExecuteGuardedOffEntirely covers the empty active set: a guard
// whose predicate is false in every lane must change nothing but the PC.
func TestExecuteGuardedOffEntirely(t *testing.T) {
	for op := isa.Opcode(0); op.Valid(); op++ {
		in := isa.Instr{Op: op, GuardPred: 2, Dst: isa.Reg(1), A: isa.Reg(2), B: isa.Reg(3), C: isa.Reg(1), Target: 7, Reconv: 9}
		if op == isa.SETP {
			in.Dst = isa.Pred(0)
		}
		got, want := newDiffMachine(1, LanesMask(32), LanesMask(32)), newDiffMachine(1, LanesMask(32), LanesMask(32))
		got.w.preds[2], want.w.preds[2] = 0, 0
		dop := Decode(&in)
		gres, gerr := got.w.Execute(&dop, got.env, nil)
		wres, werr := refExecute(want.w, &in, want.env)
		if gerr != nil || werr != nil || gres.Active != 0 || wres.Active != 0 {
			t.Fatalf("%s: active %#x/%#x, errors %v/%v", &in, gres.Active, wres.Active, gerr, werr)
		}
		if !reflect.DeepEqual(got.w.regs, want.w.regs) || got.w.preds != want.w.preds ||
			!reflect.DeepEqual(got.w.simt.stack, want.w.simt.stack) {
			t.Fatalf("%s: guarded-off execution changed state differently from the reference", &in)
		}
	}
}

// TestBindBlockSpecialRows checks the rows BindBlock fills against the
// per-lane definition of every special register, for 1-D and 2-D blocks.
func TestBindBlockSpecialRows(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		m := newDiffMachine(seed, LanesMask(32), LanesMask(32))
		for s := isa.Special(0); s < isa.NumSpecials; s++ {
			for lane := 0; lane < kernel.WarpSize; lane++ {
				if got, want := m.w.specials[s][lane], refOperand(m.w, isa.Sreg(s), lane, m.env); got != want {
					t.Fatalf("seed %d: %s lane %d = %d, want %d", seed, s, lane, got, want)
				}
			}
		}
	}
}

// fuzzInstr builds a well-formed instruction from raw fuzz words:
// indices are reduced into range, everything else is taken as is.
func fuzzInstr(op, guard, cmp uint8, dst, a, b, c uint16, imm, off int32) isa.Instr {
	operand := func(v uint16) isa.Operand {
		switch v >> 8 % 4 {
		case 0:
			return isa.Reg(int(v) % diffRegs)
		case 1:
			return isa.Imm(imm ^ int32(v))
		case 2:
			return isa.Sreg(isa.Special(v % uint16(isa.NumSpecials)))
		}
		return isa.None
	}
	in := isa.Instr{
		Op: isa.Opcode(op) % (isa.EXIT + 1), GuardPred: isa.NoPred, GuardNeg: guard&1 != 0,
		Dst: isa.Reg(int(dst) % diffRegs), A: operand(a), B: operand(b), C: operand(c),
		Cmp: isa.CmpOp(cmp % 10), Off: off % 1024, Target: int(a % 16), Reconv: int(b % 16),
	}
	if guard&2 != 0 {
		in.GuardPred = int8(guard >> 2 % kernel.MaxPredRegs)
	}
	switch in.Op {
	case isa.SETP:
		in.Dst = isa.Pred(int(dst) % kernel.MaxPredRegs)
	case isa.SELP:
		in.C = isa.Pred(int(c) % kernel.MaxPredRegs)
	case isa.LDP:
		in.Off = int32(uint32(off) % 3)
	}
	return in
}

// FuzzExecute differentially fuzzes the executor. The corpus is seeded
// with every instruction of the 19 workload kernels (register and
// parameter indices folded into the small differential machine).
func FuzzExecute(f *testing.F) {
	kind := map[isa.OperandKind]uint16{isa.OpReg: 0, isa.OpImm: 1 << 8, isa.OpSpecial: 2 << 8, isa.OpNone: 3 << 8, isa.OpPred: 0}
	enc := func(o isa.Operand) uint16 {
		if o.Kind == isa.OpSpecial {
			return kind[o.Kind] | uint16(o.Spec)
		}
		return kind[o.Kind] | uint16(o.Reg)
	}
	for _, spec := range workloads.All() {
		for _, in := range spec.Build(1).Launch.Kernel.Instrs {
			guard := uint8(0)
			if in.Guarded() {
				guard = 2 | uint8(in.GuardPred)<<2
			}
			if in.GuardNeg {
				guard |= 1
			}
			f.Add(uint8(in.Op), guard, uint8(in.Cmp), uint16(in.Dst.Reg), enc(in.A), enc(in.B), enc(in.C),
				in.A.Imm|in.B.Imm|in.C.Imm, in.Off, int64(in.Op), uint32(0xffffffff), uint32(0xffffffff))
		}
	}
	f.Fuzz(func(t *testing.T, op, guard, cmp uint8, dst, a, b, c uint16, imm, off int32, seed int64, lanes, top uint32) {
		in := fuzzInstr(op, guard, cmp, dst, a, b, c, imm, off)
		lanes |= 1
		if top&lanes == 0 {
			top = lanes
		}
		diffExecute(t, &in, seed, lanes, top)
	})
}
