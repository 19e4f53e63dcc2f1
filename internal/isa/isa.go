// Package isa defines the PTX-like instruction set executed by the
// simulator. It is deliberately small but complete enough to express the
// benchmark proxies from the paper: integer and floating-point arithmetic,
// transcendental (SFU) operations, predicated execution, global and
// scratchpad (shared) memory accesses, divergent branches with explicit
// reconvergence points, barriers, and thread exit.
//
// All values are 32-bit. Floating point values travel through the register
// file as their IEEE-754 bit patterns (math.Float32bits).
package isa

import "fmt"

// Opcode identifies an operation. The zero value is NOP.
type Opcode uint8

// Opcodes. Groupings matter: UnitOf derives the execution unit class from
// the opcode, and LatencyClass the latency class.
const (
	NOP Opcode = iota

	// Integer ALU.
	MOV  // d = a
	IADD // d = a + b
	ISUB // d = a - b
	IMUL // d = a * b (low 32 bits)
	IMAD // d = a*b + c
	IMIN // d = min(a, b) signed
	IMAX // d = max(a, b) signed
	AND  // d = a & b
	OR   // d = a | b
	XOR  // d = a ^ b
	SHL  // d = a << (b & 31)
	SHR  // d = a >> (b & 31) logical
	SRA  // d = a >> (b & 31) arithmetic

	// Floating point (single precision) ALU.
	FADD // d = a + b
	FSUB // d = a - b
	FMUL // d = a * b
	FFMA // d = a*b + c
	FMIN // d = min(a, b)
	FMAX // d = max(a, b)

	// SFU (special function unit) operations.
	FRCP  // d = 1 / a
	FSQRT // d = sqrt(a)
	FEXP  // d = exp2(a)
	FLOG  // d = log2(a)
	FSIN  // d = sin(a)

	// Conversions.
	I2F // d = float32(int32(a))
	F2I // d = int32(float32(a))

	// Predicate manipulation.
	SETP // p = cmp(a, b); Dst is a predicate register
	SELP // d = p ? a : b; C names the predicate register

	// Memory. Effective address is a + Off (bytes).
	LDG // d = global[a + Off]
	STG // global[a + Off] = b
	LDS // d = shared[a + Off]   (per-block scratchpad)
	STS // shared[a + Off] = b

	// Parameter space. Kernel arguments live in a small read-only bank
	// (the constant/param space in PTX); LDP reads argument Off.
	LDP // d = param[Off]

	// Control.
	BRA  // branch to Target; divergence reconverges at Reconv
	BAR  // block-wide barrier (__syncthreads)
	EXIT // thread exit (lane-wise when guarded by a predicate)

	numOpcodes
)

var opNames = [...]string{
	NOP: "nop", MOV: "mov", IADD: "iadd", ISUB: "isub", IMUL: "imul",
	IMAD: "imad", IMIN: "imin", IMAX: "imax", AND: "and", OR: "or",
	XOR: "xor", SHL: "shl", SHR: "shr", SRA: "sra",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FFMA: "ffma",
	FMIN: "fmin", FMAX: "fmax",
	FRCP: "frcp", FSQRT: "fsqrt", FEXP: "fexp", FLOG: "flog", FSIN: "fsin",
	I2F: "i2f", F2I: "f2i",
	SETP: "setp", SELP: "selp",
	LDG: "ld.global", STG: "st.global", LDS: "ld.shared", STS: "st.shared",
	LDP: "ld.param", BRA: "bra", BAR: "bar.sync", EXIT: "exit",
}

// String returns the assembly mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// Unit is the execution unit class an instruction issues to.
type Unit uint8

// Execution unit classes.
const (
	UnitSP  Unit = iota // streaming-processor ALU pipeline
	UnitSFU             // special function unit
	UnitMEM             // load/store unit (global and shared memory)
)

func (u Unit) String() string {
	switch u {
	case UnitSP:
		return "SP"
	case UnitSFU:
		return "SFU"
	case UnitMEM:
		return "MEM"
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// UnitOf returns the execution unit class for an opcode.
func UnitOf(op Opcode) Unit {
	switch op {
	case FRCP, FSQRT, FEXP, FLOG, FSIN:
		return UnitSFU
	case LDG, STG, LDS, STS:
		return UnitMEM
	default:
		return UnitSP
	}
}

// IsGlobalMem reports whether the opcode accesses global memory.
func IsGlobalMem(op Opcode) bool { return op == LDG || op == STG }

// IsSharedMem reports whether the opcode accesses scratchpad memory.
func IsSharedMem(op Opcode) bool { return op == LDS || op == STS }

// CmpOp is the comparison performed by SETP.
type CmpOp uint8

// Comparison operators. The U-suffixed forms compare unsigned.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	CmpLTU
	CmpGEU
	CmpFLT // float less-than
	CmpFGE // float greater-or-equal
	numCmpOps
)

var cmpNames = [...]string{
	CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le", CmpGT: "gt",
	CmpGE: "ge", CmpLTU: "ltu", CmpGEU: "geu", CmpFLT: "flt", CmpFGE: "fge",
}

func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Valid reports whether c is a defined comparison operator.
func (c CmpOp) Valid() bool { return c < numCmpOps }

// Special identifies a read-only special register.
type Special uint8

// Special registers. Grids and blocks are two-dimensional (the y
// dimension defaults to 1); threads linearize row-major, CUDA-style:
// linear = tid.y*ntid.x + tid.x. The bare names (%tid, %ctaid, ...)
// denote the x dimension.
const (
	SrTid     Special = iota // thread x-index within the block
	SrCtaid                  // block x-index within the grid
	SrNtid                   // block x-dimension
	SrNctaid                 // grid x-dimension
	SrLane                   // lane index within the warp (0..31)
	SrWarpCta                // warp index within the block
	SrTidY                   // thread y-index within the block
	SrCtaidY                 // block y-index within the grid
	SrNtidY                  // block y-dimension
	SrNctaidY                // grid y-dimension
	NumSpecials
)

var specialNames = [...]string{
	SrTid: "%tid", SrCtaid: "%ctaid", SrNtid: "%ntid",
	SrNctaid: "%nctaid", SrLane: "%lane", SrWarpCta: "%warpid",
	SrTidY: "%tid.y", SrCtaidY: "%ctaid.y", SrNtidY: "%ntid.y",
	SrNctaidY: "%nctaid.y",
}

func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return fmt.Sprintf("%%sr(%d)", uint8(s))
}

// Valid reports whether s is a defined special register.
func (s Special) Valid() bool { return s < NumSpecials }

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds. The zero value means "operand not present".
const (
	OpNone    OperandKind = iota
	OpReg                 // general-purpose register rN
	OpImm                 // 32-bit immediate
	OpSpecial             // special register
	OpPred                // predicate register pN (SETP destination, SELP selector)
)

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  uint8   // register index for OpReg / OpPred
	Imm  int32   // immediate value for OpImm
	Spec Special // special register for OpSpecial
}

// Reg returns a general-purpose register operand.
func Reg(i int) Operand { return Operand{Kind: OpReg, Reg: uint8(i)} }

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OpImm, Imm: v} }

// ImmF returns an immediate operand holding the bit pattern of a float32.
func ImmF(v float32) Operand { return Operand{Kind: OpImm, Imm: int32(f32bits(v))} }

// Sreg returns a special register operand.
func Sreg(s Special) Operand { return Operand{Kind: OpSpecial, Spec: s} }

// Pred returns a predicate register operand.
func Pred(i int) Operand { return Operand{Kind: OpPred, Reg: uint8(i)} }

// None is the absent operand.
var None = Operand{}

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpNone:
		return "_"
	case OpReg:
		return fmt.Sprintf("r%d", o.Reg)
	case OpImm:
		return fmt.Sprintf("%d", o.Imm)
	case OpSpecial:
		return o.Spec.String()
	case OpPred:
		return fmt.Sprintf("p%d", o.Reg)
	}
	return "?"
}

// NoPred marks an instruction as unguarded.
const NoPred = -1

// Instr is one decoded instruction. Instructions are stored in a flat
// slice per kernel; PCs, branch targets, and reconvergence points are
// indices into that slice.
type Instr struct {
	Op Opcode

	// Guard predicate: the instruction only executes for lanes where
	// predicate register GuardPred is true (or false when GuardNeg).
	// GuardPred == NoPred means unguarded.
	GuardPred int8
	GuardNeg  bool

	Dst     Operand // destination (OpReg, or OpPred for SETP)
	A, B, C Operand // sources

	Cmp CmpOp // comparison for SETP

	Off int32 // byte offset for memory operations

	Target int // branch target PC for BRA
	Reconv int // reconvergence PC for divergent BRA
}

// Guarded reports whether the instruction carries a guard predicate.
func (in *Instr) Guarded() bool { return in.GuardPred != NoPred }

// DstReg returns the general-purpose destination register index and true,
// or 0 and false when the instruction does not write a GPR.
func (in *Instr) DstReg() (int, bool) {
	if in.Dst.Kind == OpReg {
		return int(in.Dst.Reg), true
	}
	return 0, false
}

// SrcRegs appends the general-purpose source register indices of the
// instruction to buf and returns the extended slice.
func (in *Instr) SrcRegs(buf []int) []int {
	for _, o := range [...]Operand{in.A, in.B, in.C} {
		if o.Kind == OpReg {
			buf = append(buf, int(o.Reg))
		}
	}
	return buf
}

// Regs appends every general-purpose register the instruction touches
// (sources and destination) to buf and returns the extended slice.
func (in *Instr) Regs(buf []int) []int {
	buf = in.SrcRegs(buf)
	if r, ok := in.DstReg(); ok {
		buf = append(buf, r)
	}
	return buf
}

// MaxReg returns the highest general-purpose register index referenced by
// the instruction, or -1 if it references none.
func (in *Instr) MaxReg() int {
	maxIdx := -1
	var buf [4]int
	for _, r := range in.Regs(buf[:0]) {
		if r > maxIdx {
			maxIdx = r
		}
	}
	return maxIdx
}

// String renders the instruction in assembly syntax (without a PC).
func (in *Instr) String() string {
	s := ""
	if in.Guarded() {
		neg := ""
		if in.GuardNeg {
			neg = "!"
		}
		s = fmt.Sprintf("@%sp%d ", neg, in.GuardPred)
	}
	switch in.Op {
	case NOP, BAR, EXIT:
		return s + in.Op.String()
	case BRA:
		return s + fmt.Sprintf("%s %d, reconv %d", in.Op, in.Target, in.Reconv)
	case SETP:
		return s + fmt.Sprintf("%s.%s %s, %s, %s", in.Op, in.Cmp, in.Dst, in.A, in.B)
	case SELP:
		return s + fmt.Sprintf("%s %s, %s, %s, %s", in.Op, in.Dst, in.A, in.B, in.C)
	case LDP:
		return s + fmt.Sprintf("%s %s, [%d]", in.Op, in.Dst, in.Off)
	case LDG, LDS:
		return s + fmt.Sprintf("%s %s, [%s+%d]", in.Op, in.Dst, in.A, in.Off)
	case STG, STS:
		return s + fmt.Sprintf("%s [%s+%d], %s", in.Op, in.A, in.Off, in.B)
	case IMAD, FFMA:
		return s + fmt.Sprintf("%s %s, %s, %s, %s", in.Op, in.Dst, in.A, in.B, in.C)
	case MOV, FRCP, FSQRT, FEXP, FLOG, FSIN, I2F, F2I:
		return s + fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.A)
	default:
		return s + fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.A, in.B)
	}
}
