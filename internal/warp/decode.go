package warp

import (
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// Op is one instruction decoded for row-wise execution: the opcode and
// control fields Execute dispatches on, with every source operand
// resolved to the row it reads. An Op is immutable once decoded, so one
// decoded program serves every warp and SM of a launch.
type Op struct {
	Code isa.Opcode

	cmp      isa.CmpOp
	guard    int8 // guard predicate register, isa.NoPred when unguarded
	guardNeg bool
	dst      uint8 // destination register (predicate register for SETP)
	a, b, c  operand

	off            uint32 // byte offset of a memory access; parameter index for LDP
	target, reconv int    // BRA
}

// operand is a decoded source. Exactly one form applies: a broadcast
// constant row built at decode (an immediate, or zeros for an absent
// operand), a special-register row of the warp, or a register row. For
// SELP's selector, idx names the predicate register.
type operand struct {
	imm     *isa.Row
	idx     uint8
	special bool
}

// zeroRow is what an absent operand reads. Never written.
var zeroRow isa.Row

// Decode lowers one instruction.
func Decode(in *isa.Instr) Op {
	return Op{
		Code:     in.Op,
		cmp:      in.Cmp,
		guard:    in.GuardPred,
		guardNeg: in.GuardNeg,
		dst:      in.Dst.Reg,
		a:        decodeOperand(in.A),
		b:        decodeOperand(in.B),
		c:        decodeOperand(in.C),
		off:      uint32(in.Off),
		target:   in.Target,
		reconv:   in.Reconv,
	}
}

func decodeOperand(o isa.Operand) operand {
	switch o.Kind {
	case isa.OpReg:
		return operand{idx: o.Reg}
	case isa.OpPred:
		return operand{imm: &zeroRow, idx: o.Reg} // reads 0 as a value; idx serves SELP
	case isa.OpImm:
		r := new(isa.Row)
		fillRow(r, uint32(o.Imm))
		return operand{imm: r}
	case isa.OpSpecial:
		if o.Spec.Valid() {
			return operand{idx: uint8(o.Spec), special: true}
		}
	}
	return operand{imm: &zeroRow}
}

// DecodeKernel lowers a whole kernel; the result is indexed by PC.
func DecodeKernel(k *kernel.Kernel) []Op {
	ops := make([]Op, len(k.Instrs))
	for pc := range k.Instrs {
		ops[pc] = Decode(&k.Instrs[pc])
	}
	return ops
}
