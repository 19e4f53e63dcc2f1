package isa

import "math"

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Eval computes the scalar result of an ALU/SFU opcode for one lane.
// a, b, c are the source operand values; memory and control opcodes must
// not be passed to Eval (they are handled by the warp executor).
func Eval(op Opcode, a, b, c uint32) uint32 {
	switch op {
	case NOP:
		return 0
	case MOV:
		return a
	case IADD:
		return a + b
	case ISUB:
		return a - b
	case IMUL:
		return uint32(int32(a) * int32(b))
	case IMAD:
		return uint32(int32(a)*int32(b) + int32(c))
	case IMIN:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case IMAX:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << (b & 31)
	case SHR:
		return a >> (b & 31)
	case SRA:
		return uint32(int32(a) >> (b & 31))
	case FADD:
		return f32bits(f32frombits(a) + f32frombits(b))
	case FSUB:
		return f32bits(f32frombits(a) - f32frombits(b))
	case FMUL:
		return f32bits(f32frombits(a) * f32frombits(b))
	case FFMA:
		// The explicit conversion rounds the product, so no architecture
		// may fuse the multiply-add: results match amd64 everywhere.
		return f32bits(float32(f32frombits(a)*f32frombits(b)) + f32frombits(c))
	case FMIN:
		return f32bits(float32(math.Min(float64(f32frombits(a)), float64(f32frombits(b)))))
	case FMAX:
		return f32bits(float32(math.Max(float64(f32frombits(a)), float64(f32frombits(b)))))
	case FRCP:
		return f32bits(1 / f32frombits(a))
	case FSQRT:
		return f32bits(float32(math.Sqrt(float64(f32frombits(a)))))
	case FEXP:
		return f32bits(float32(math.Exp2(float64(f32frombits(a)))))
	case FLOG:
		return f32bits(float32(math.Log2(float64(f32frombits(a)))))
	case FSIN:
		return f32bits(float32(math.Sin(float64(f32frombits(a)))))
	case I2F:
		return f32bits(float32(int32(a)))
	case F2I:
		return uint32(int32(f32frombits(a)))
	case SELP:
		// The warp executor resolves the predicate and passes it in c.
		if c != 0 {
			return a
		}
		return b
	}
	return 0
}

// EvalCmp computes a SETP comparison for one lane.
func EvalCmp(cmp CmpOp, a, b uint32) bool {
	switch cmp {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return int32(a) < int32(b)
	case CmpLE:
		return int32(a) <= int32(b)
	case CmpGT:
		return int32(a) > int32(b)
	case CmpGE:
		return int32(a) >= int32(b)
	case CmpLTU:
		return a < b
	case CmpGEU:
		return a >= b
	case CmpFLT:
		return f32frombits(a) < f32frombits(b)
	case CmpFGE:
		return f32frombits(a) >= f32frombits(b)
	}
	return false
}
