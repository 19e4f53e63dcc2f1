package isa

import "math"

// Lanes is the SIMD width the row kernels operate on: one warp.
const Lanes = 32

// Row is one 32-bit value per lane of a warp: a register as the warp
// state stores it, a broadcast immediate, or a special register. The
// row kernels below are the warp-wide form of Eval and EvalCmp: one
// dispatch on the opcode, then a straight-line loop over the lanes.
type Row = [Lanes]uint32

// FullMask selects every lane.
const FullMask = ^uint32(0)

// EvalRow computes an ALU/SFU opcode (any opcode Eval evaluates, bar
// SELP, whose selector is a predicate mask: see SelRow) for the lanes in
// mask and leaves the other lanes of dst untouched. dst may alias any
// source: every kernel is element-wise. Under a full mask the result is
// written straight into dst; under a partial one the cheap integer and
// float kernels compute all lanes into a temporary (Eval is pure, so the
// inactive lanes are harmless) and blend, while the SFU kernels, whose
// per-lane cost dwarfs a branch, skip inactive lanes instead.
func EvalRow(op Opcode, dst, a, b, c *Row, mask uint32) {
	if mask == 0 {
		return
	}
	switch op {
	case FRCP, FSQRT, FEXP, FLOG, FSIN:
		sfuRow(op, dst, a, mask)
		return
	}
	if mask == FullMask {
		aluRow(op, dst, a, b, c)
		return
	}
	var tmp Row
	aluRow(op, &tmp, a, b, c)
	blendRow(dst, &tmp, mask)
}

// blendRow copies the lanes of src selected by mask into dst.
func blendRow(dst, src *Row, mask uint32) {
	for i := range dst {
		m := -(mask >> uint(i) & 1) // all ones when lane i is selected
		dst[i] = dst[i]&^m | src[i]&m
	}
}

// aluRow evaluates one non-SFU opcode on all lanes. Each case must
// compute exactly what Eval computes for one lane. (One latitude, shared
// with Eval itself: when two source operands of a float add or multiply
// are both NaN, which payload the NaN result carries is left to the
// hardware's operand order, which neither IEEE 754 nor Go pins down.)
func aluRow(op Opcode, dst, a, b, c *Row) {
	switch op {
	case MOV:
		*dst = *a
	case IADD:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case ISUB:
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	case IMUL:
		for i := range dst {
			dst[i] = uint32(int32(a[i]) * int32(b[i]))
		}
	case IMAD:
		for i := range dst {
			dst[i] = uint32(int32(a[i])*int32(b[i]) + int32(c[i]))
		}
	case IMIN:
		for i := range dst {
			dst[i] = uint32(min(int32(a[i]), int32(b[i])))
		}
	case IMAX:
		for i := range dst {
			dst[i] = uint32(max(int32(a[i]), int32(b[i])))
		}
	case AND:
		for i := range dst {
			dst[i] = a[i] & b[i]
		}
	case OR:
		for i := range dst {
			dst[i] = a[i] | b[i]
		}
	case XOR:
		for i := range dst {
			dst[i] = a[i] ^ b[i]
		}
	case SHL:
		for i := range dst {
			dst[i] = a[i] << (b[i] & 31)
		}
	case SHR:
		for i := range dst {
			dst[i] = a[i] >> (b[i] & 31)
		}
	case SRA:
		for i := range dst {
			dst[i] = uint32(int32(a[i]) >> (b[i] & 31))
		}
	case FADD:
		for i := range dst {
			dst[i] = f32bits(f32frombits(a[i]) + f32frombits(b[i]))
		}
	case FSUB:
		for i := range dst {
			dst[i] = f32bits(f32frombits(a[i]) - f32frombits(b[i]))
		}
	case FMUL:
		for i := range dst {
			dst[i] = f32bits(f32frombits(a[i]) * f32frombits(b[i]))
		}
	case FFMA:
		for i := range dst {
			dst[i] = f32bits(float32(f32frombits(a[i])*f32frombits(b[i])) + f32frombits(c[i]))
		}
	case FMIN:
		for i := range dst {
			dst[i] = f32bits(float32(math.Min(float64(f32frombits(a[i])), float64(f32frombits(b[i])))))
		}
	case FMAX:
		for i := range dst {
			dst[i] = f32bits(float32(math.Max(float64(f32frombits(a[i])), float64(f32frombits(b[i])))))
		}
	case I2F:
		for i := range dst {
			dst[i] = f32bits(float32(int32(a[i])))
		}
	case F2I:
		for i := range dst {
			dst[i] = uint32(int32(f32frombits(a[i])))
		}
	default:
		// NOP, and the memory, control and predicate opcodes that never
		// reach the ALU (SELP has its own kernel, SelRow): zero, as in
		// Eval.
		*dst = Row{}
	}
}

// sfuRow evaluates one SFU opcode on the lanes in mask. FSIN and FEXP
// run the float32 kernels of sfu.go and hand a lane they cannot decide
// to Eval, the definition they reproduce.
func sfuRow(op Opcode, dst, a *Row, mask uint32) {
	var f func(float64) float64
	switch op {
	case FRCP:
		for i := range dst {
			if mask>>uint(i)&1 != 0 {
				dst[i] = f32bits(1 / f32frombits(a[i]))
			}
		}
		return
	case FSIN:
		for i := range dst {
			if mask>>uint(i)&1 != 0 {
				y, ok := sinKernel(a[i])
				if !ok {
					y = Eval(FSIN, a[i], 0, 0)
				}
				dst[i] = y
			}
		}
		return
	case FEXP:
		for i := range dst {
			if mask>>uint(i)&1 != 0 {
				y, ok := exp2Kernel(a[i])
				if !ok {
					y = Eval(FEXP, a[i], 0, 0)
				}
				dst[i] = y
			}
		}
		return
	case FSQRT:
		f = math.Sqrt
	case FLOG:
		f = math.Log2
	}
	for i := range dst {
		if mask>>uint(i)&1 != 0 {
			dst[i] = f32bits(float32(f(float64(f32frombits(a[i])))))
		}
	}
}

// SelRow is SELP warp-wide: for the lanes in mask, dst takes a where
// the lane's bit of pred is set and b where it is clear.
func SelRow(dst, a, b *Row, pred, mask uint32) {
	for i := range dst {
		if mask>>uint(i)&1 != 0 {
			if pred>>uint(i)&1 != 0 {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
	}
}

// CmpRow computes a SETP comparison on all lanes and returns the lanes
// where it holds as a bit mask.
func CmpRow(cmp CmpOp, a, b *Row) uint32 {
	var set uint32
	switch cmp {
	case CmpEQ:
		for i := range a {
			set |= b2u(a[i] == b[i]) << uint(i)
		}
	case CmpNE:
		for i := range a {
			set |= b2u(a[i] != b[i]) << uint(i)
		}
	case CmpLT:
		for i := range a {
			set |= b2u(int32(a[i]) < int32(b[i])) << uint(i)
		}
	case CmpLE:
		for i := range a {
			set |= b2u(int32(a[i]) <= int32(b[i])) << uint(i)
		}
	case CmpGT:
		for i := range a {
			set |= b2u(int32(a[i]) > int32(b[i])) << uint(i)
		}
	case CmpGE:
		for i := range a {
			set |= b2u(int32(a[i]) >= int32(b[i])) << uint(i)
		}
	case CmpLTU:
		for i := range a {
			set |= b2u(a[i] < b[i]) << uint(i)
		}
	case CmpGEU:
		for i := range a {
			set |= b2u(a[i] >= b[i]) << uint(i)
		}
	case CmpFLT:
		for i := range a {
			set |= b2u(f32frombits(a[i]) < f32frombits(b[i])) << uint(i)
		}
	case CmpFGE:
		for i := range a {
			set |= b2u(f32frombits(a[i]) >= f32frombits(b[i])) << uint(i)
		}
	}
	return set
}

// b2u converts a comparison result to 0 or 1 (compiled branch-free).
func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}
