package kernel

import (
	"fmt"

	"gpushare/internal/isa"
	"gpushare/internal/simerr"
)

// Builder assembles a kernel programmatically. It supports forward label
// references for branch targets and reconvergence points; Build resolves
// them and validates the result.
//
//	b := kernel.NewBuilder("saxpy", 256)
//	b.Params(3) // x, y, n
//	b.LdParam(rX, 0)
//	...
//	b.Label("loop")
//	...
//	b.Setp(isa.CmpLT, 0, isa.Reg(rI), isa.Reg(rN))
//	b.BraIf(0, false, "loop", "done")
//	b.Label("done")
//	b.Exit()
//	k, err := b.Build()
type Builder struct {
	k      Kernel
	labels map[string]int
	fixups []fixup

	guardPred int8
	guardNeg  bool
	err       error
}

type fixup struct {
	pc             int
	target, reconv string // labels for Instr.Target and Instr.Reconv
}

// NewBuilder returns a builder for a kernel with the given name and block
// dimension. Register and scratchpad footprints default to the used
// amounts; override them with SetRegs/SetSmem to model padded allocations.
func NewBuilder(name string, blockDim int) *Builder {
	return &Builder{
		k:         Kernel{Name: name, BlockDim: blockDim},
		labels:    map[string]int{},
		guardPred: isa.NoPred,
	}
}

// SetName names the kernel.
func (b *Builder) SetName(name string) *Builder { b.k.Name = name; return b }

// SetBlockDim declares the block's x dimension in threads.
func (b *Builder) SetBlockDim(n int) *Builder { b.k.BlockDim = n; return b }

// SetRegs declares the architectural register footprint per thread.
func (b *Builder) SetRegs(n int) *Builder { b.k.RegsPerThread = n; return b }

// SetBlockDimY declares the block's y dimension (default 1).
func (b *Builder) SetBlockDimY(n int) *Builder { b.k.BlockDimY = n; return b }

// SetSmem declares the scratchpad footprint in bytes per block.
func (b *Builder) SetSmem(n int) *Builder { b.k.SmemPerBlock = n; return b }

// Params declares the number of 32-bit kernel arguments.
func (b *Builder) Params(n int) *Builder { b.k.NumParams = n; return b }

// Label defines a label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup && b.err == nil {
		b.err = fmt.Errorf("kernel %s: duplicate label %q", b.k.Name, name)
	}
	b.labels[name] = len(b.k.Instrs)
}

// Guard applies a predicate guard to the next emitted instruction only.
func (b *Builder) Guard(pred int, neg bool) *Builder {
	b.guardPred, b.guardNeg = int8(pred), neg
	return b
}

// Emit appends a raw instruction, applying any pending guard.
func (b *Builder) Emit(in isa.Instr) int {
	if b.guardPred != isa.NoPred {
		in.GuardPred, in.GuardNeg = b.guardPred, b.guardNeg
		b.guardPred, b.guardNeg = isa.NoPred, false
	}
	b.k.Instrs = append(b.k.Instrs, in)
	return len(b.k.Instrs) - 1
}

// op emits a register-destination instruction d = op(a, src2, c).
func (b *Builder) op(op isa.Opcode, d int, a, src2, c isa.Operand) {
	b.Emit(isa.Instr{Op: op, GuardPred: isa.NoPred, Dst: isa.Reg(d), A: a, B: src2, C: c})
}

func (b *Builder) op3(op isa.Opcode, d int, a, src2 isa.Operand) { b.op(op, d, a, src2, isa.None) }

// Mov emits d = a.
func (b *Builder) Mov(d int, a isa.Operand) { b.op(isa.MOV, d, a, isa.None, isa.None) }

// MovI emits d = imm.
func (b *Builder) MovI(d int, imm int32) { b.Mov(d, isa.Imm(imm)) }

// MovF emits d = float immediate.
func (b *Builder) MovF(d int, f float32) { b.Mov(d, isa.ImmF(f)) }

// IAdd emits d = a + b2.
func (b *Builder) IAdd(d int, a, b2 isa.Operand) { b.op3(isa.IADD, d, a, b2) }

// ISub emits d = a - b2.
func (b *Builder) ISub(d int, a, b2 isa.Operand) { b.op3(isa.ISUB, d, a, b2) }

// IMul emits d = a * b2.
func (b *Builder) IMul(d int, a, b2 isa.Operand) { b.op3(isa.IMUL, d, a, b2) }

// IMin emits d = min(a, b2).
func (b *Builder) IMin(d int, a, b2 isa.Operand) { b.op3(isa.IMIN, d, a, b2) }

// IMax emits d = max(a, b2).
func (b *Builder) IMax(d int, a, b2 isa.Operand) { b.op3(isa.IMAX, d, a, b2) }

// And emits d = a & b2.
func (b *Builder) And(d int, a, b2 isa.Operand) { b.op3(isa.AND, d, a, b2) }

// Or emits d = a | b2.
func (b *Builder) Or(d int, a, b2 isa.Operand) { b.op3(isa.OR, d, a, b2) }

// Xor emits d = a ^ b2.
func (b *Builder) Xor(d int, a, b2 isa.Operand) { b.op3(isa.XOR, d, a, b2) }

// Shl emits d = a << b2.
func (b *Builder) Shl(d int, a, b2 isa.Operand) { b.op3(isa.SHL, d, a, b2) }

// Shr emits d = a >> b2 (logical).
func (b *Builder) Shr(d int, a, b2 isa.Operand) { b.op3(isa.SHR, d, a, b2) }

// IMad emits d = a*b2 + c.
func (b *Builder) IMad(d int, a, b2, c isa.Operand) { b.op(isa.IMAD, d, a, b2, c) }

// FAdd emits d = a + b2 (float).
func (b *Builder) FAdd(d int, a, b2 isa.Operand) { b.op3(isa.FADD, d, a, b2) }

// FSub emits d = a - b2 (float).
func (b *Builder) FSub(d int, a, b2 isa.Operand) { b.op3(isa.FSUB, d, a, b2) }

// FMul emits d = a * b2 (float).
func (b *Builder) FMul(d int, a, b2 isa.Operand) { b.op3(isa.FMUL, d, a, b2) }

// FFma emits d = a*b2 + c (float).
func (b *Builder) FFma(d int, a, b2, c isa.Operand) { b.op(isa.FFMA, d, a, b2, c) }

// FRcp emits d = 1/a (SFU).
func (b *Builder) FRcp(d int, a isa.Operand) { b.op(isa.FRCP, d, a, isa.None, isa.None) }

// FSqrt emits d = sqrt(a) (SFU).
func (b *Builder) FSqrt(d int, a isa.Operand) { b.op(isa.FSQRT, d, a, isa.None, isa.None) }

// FExp emits d = exp2(a) (SFU).
func (b *Builder) FExp(d int, a isa.Operand) { b.op(isa.FEXP, d, a, isa.None, isa.None) }

// FLog emits d = log2(a) (SFU).
func (b *Builder) FLog(d int, a isa.Operand) { b.op(isa.FLOG, d, a, isa.None, isa.None) }

// FSin emits d = sin(a) (SFU).
func (b *Builder) FSin(d int, a isa.Operand) { b.op(isa.FSIN, d, a, isa.None, isa.None) }

// I2F emits d = float(a).
func (b *Builder) I2F(d int, a isa.Operand) { b.op(isa.I2F, d, a, isa.None, isa.None) }

// F2I emits d = int(a).
func (b *Builder) F2I(d int, a isa.Operand) { b.op(isa.F2I, d, a, isa.None, isa.None) }

// Setp emits p = cmp(a, b2).
func (b *Builder) Setp(cmp isa.CmpOp, p int, a, b2 isa.Operand) {
	b.Emit(isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Cmp: cmp, Dst: isa.Pred(p), A: a, B: b2})
}

// Selp emits d = p ? a : b2.
func (b *Builder) Selp(d int, a, b2 isa.Operand, p int) {
	b.Emit(isa.Instr{Op: isa.SELP, GuardPred: isa.NoPred, Dst: isa.Reg(d), A: a, B: b2, C: isa.Pred(p)})
}

// LdParam emits d = param[idx].
func (b *Builder) LdParam(d int, idx int) {
	b.Emit(isa.Instr{Op: isa.LDP, GuardPred: isa.NoPred, Dst: isa.Reg(d), Off: int32(idx)})
}

// LdG emits d = global[addr + off].
func (b *Builder) LdG(d int, addr isa.Operand, off int32) {
	b.Emit(isa.Instr{Op: isa.LDG, GuardPred: isa.NoPred, Dst: isa.Reg(d), A: addr, Off: off})
}

// StG emits global[addr + off] = val.
func (b *Builder) StG(addr isa.Operand, off int32, val isa.Operand) {
	b.Emit(isa.Instr{Op: isa.STG, GuardPred: isa.NoPred, A: addr, B: val, Off: off})
}

// LdS emits d = shared[addr + off].
func (b *Builder) LdS(d int, addr isa.Operand, off int32) {
	b.Emit(isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(d), A: addr, Off: off})
}

// StS emits shared[addr + off] = val.
func (b *Builder) StS(addr isa.Operand, off int32, val isa.Operand) {
	b.Emit(isa.Instr{Op: isa.STS, GuardPred: isa.NoPred, A: addr, B: val, Off: off})
}

// Bar emits a block-wide barrier.
func (b *Builder) Bar() { b.Emit(isa.Instr{Op: isa.BAR, GuardPred: isa.NoPred}) }

// Exit emits a thread exit. Use Guard to exit a subset of lanes.
func (b *Builder) Exit() { b.Emit(isa.Instr{Op: isa.EXIT, GuardPred: isa.NoPred}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Instr{Op: isa.NOP, GuardPred: isa.NoPred}) }

// BraIf emits a conditional branch guarded by predicate p (negated when
// neg): lanes where the guard holds jump to target, the rest fall through,
// and diverged execution reconverges at the reconv label.
func (b *Builder) BraIf(p int, neg bool, target, reconv string) {
	b.Branch(isa.Instr{Op: isa.BRA, GuardPred: int8(p), GuardNeg: neg}, target, reconv)
}

// Bra emits an unconditional branch to target. It never diverges, so the
// reconvergence point is the branch target itself.
func (b *Builder) Bra(target string) {
	b.Branch(isa.Instr{Op: isa.BRA, GuardPred: isa.NoPred}, target, target)
}

// Branch emits the branch in as given (guard included) and resolves its
// Target and Reconv to the target and reconv labels at Build.
func (b *Builder) Branch(in isa.Instr, target, reconv string) {
	pc := b.Emit(in)
	b.fixups = append(b.fixups, fixup{pc: pc, target: target, reconv: reconv})
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.k.Instrs) }

// Build resolves labels, fills in the register footprint if unset, and
// validates the kernel.
func (b *Builder) Build() (*Kernel, error) {
	if b.err != nil {
		return nil, b.err
	}
	resolve := func(label string, pc *int) error {
		var ok bool
		if *pc, ok = b.labels[label]; !ok {
			return fmt.Errorf("kernel %s: undefined label %q", b.k.Name, label)
		}
		return nil
	}
	for _, f := range b.fixups {
		in := &b.k.Instrs[f.pc]
		if err := resolve(f.target, &in.Target); err != nil {
			return nil, err
		}
		if err := resolve(f.reconv, &in.Reconv); err != nil {
			return nil, err
		}
	}
	if b.k.RegsPerThread == 0 {
		b.k.RegsPerThread = b.k.MaxUsedReg() + 1
	}
	if err := b.k.Validate(); err != nil {
		return nil, err
	}
	k := b.k // copy so further builder use cannot alias the built kernel
	return &k, nil
}

// MustBuild is Build that panics on error; for statically-known-good
// kernels such as the workload proxies. The panic value is a typed
// *simerr.SimError so the runner's panic capture recognizes it as a
// deterministic launch failure and does not retry the job.
func (b *Builder) MustBuild() *Kernel {
	k, err := b.Build()
	if err != nil {
		panic(simerr.Wrap(simerr.KindLaunch, -1,
			fmt.Errorf("building kernel %s: %w", b.k.Name, err)))
	}
	return k
}
