package asm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/workloads"
)

func TestParseBasic(t *testing.T) {
	src := `
.kernel saxpy
.block 256
.regs 8
.params 3

	imad r0, %ctaid, %ntid, %tid
	shl r1, r0, 2
	ld.param r2, [0]
	iadd r2, r2, r1
	ld.global r3, [r2+0]
	fmul r3, r3, 1.5f
	st.global [r2+0], r3
	exit
`
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if k.Name != "saxpy" || k.BlockDim != 256 || k.RegsPerThread != 8 || k.NumParams != 3 {
		t.Fatalf("header mismatch: %+v", k)
	}
	if len(k.Instrs) != 8 {
		t.Fatalf("got %d instructions, want 8", len(k.Instrs))
	}
	if k.Instrs[0].Op != isa.IMAD || k.Instrs[0].A.Spec != isa.SrCtaid {
		t.Errorf("instr 0 wrong: %s", &k.Instrs[0])
	}
	if k.Instrs[5].B.Kind != isa.OpImm {
		t.Errorf("float immediate not parsed: %s", &k.Instrs[5])
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
.kernel loopy
.block 32
.regs 4

	mov r0, 0
loop:
	iadd r0, r0, 1
	setp.lt p0, r0, 10
	@p0 bra loop, reconv done
done:
	exit
`
	k, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bra := k.Instrs[3]
	if bra.Op != isa.BRA || bra.Target != 1 || bra.Reconv != 4 {
		t.Fatalf("branch wrong: %+v", bra)
	}
	if !bra.Guarded() || bra.GuardPred != 0 || bra.GuardNeg {
		t.Fatalf("guard wrong: %+v", bra)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown mnemonic", ".kernel k\n.block 32\n\tfrobnicate r0, r1, r2\n"},
		{"undefined label", ".kernel k\n.block 32\n\tbra nowhere\n"},
		{"bad operand", ".kernel k\n.block 32\n\tiadd r0, r1, q5\n"},
		{"bad guard", ".kernel k\n.block 32\n\t@x0 exit\n"},
		{"duplicate label", ".kernel k\n.block 32\nx:\nx:\n\texit\n"},
		{"bad directive", ".kernel k\n.weird 1\n\texit\n"},
		{"operand count", ".kernel k\n.block 32\n\tiadd r0, r1\n"},
		{"bad memref", ".kernel k\n.block 32\n\tld.global r0, r1\n"},
		{"register index past the field", ".kernel k\n.block 32\n\tiadd r300, r1, r2\n"},
		{"guard predicate past the file", ".kernel k\n.block 32\n\t@p256 exit\n"},
		{"negative guard predicate", ".kernel k\n.block 32\n\t@!p-1 exit\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestRoundTripWorkloads parses the printed form of every benchmark
// kernel and checks the result is instruction-for-instruction identical.
func TestRoundTripWorkloads(t *testing.T) {
	for _, spec := range workloads.All() {
		k := spec.Build(1).Launch.Kernel
		text := Print(k)
		k2, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", spec.Name, err, text)
		}
		if err := sameKernel(k, k2); err != nil {
			t.Errorf("%s: round trip mismatch: %v", spec.Name, err)
		}
	}
}

func sameKernel(a, b *kernel.Kernel) error {
	if a.Name != b.Name || a.BlockDim != b.BlockDim ||
		a.RegsPerThread != b.RegsPerThread || a.SmemPerBlock != b.SmemPerBlock ||
		a.NumParams != b.NumParams {
		return errf("header: %v vs %v", a, b)
	}
	if len(a.Instrs) != len(b.Instrs) {
		return errf("length %d vs %d", len(a.Instrs), len(b.Instrs))
	}
	for i := range a.Instrs {
		if a.Instrs[i] != b.Instrs[i] {
			return errf("pc %d: %s vs %s", i, &a.Instrs[i], &b.Instrs[i])
		}
	}
	return nil
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// everyOpcodeKernel holds every opcode (memory ones at negative, zero
// and positive offsets), every comparison, every special register, a
// float immediate, a guarded and a negated-guard instruction, and
// branches whose reconvergence point is the end of the kernel.
func everyOpcodeKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("every", 64).SetSmem(64).Params(2)
	b.Label("top")
	for op := isa.Opcode(0); op.Valid(); op++ {
		in := isa.Instr{Op: op, GuardPred: isa.NoPred}
		for _, s := range op.Form() {
			if o := in.OperandAt(s); o != nil {
				*o = isa.Reg(int(s))
			}
		}
		switch op {
		case isa.SETP:
			in.Dst = isa.Pred(1)
		case isa.SELP:
			in.C = isa.Pred(1)
		case isa.LDP:
			in.Off = 1
		case isa.BRA:
			b.BraIf(1, true, "top", "tail")
			continue
		case isa.LDG, isa.STG, isa.LDS, isa.STS:
			in.A = isa.Reg(2)
			for _, off := range []int32{-8, 0, 12} {
				in.Off = off
				b.Emit(in)
			}
			continue
		}
		b.Emit(in)
	}
	for c := isa.CmpOp(0); c.Valid(); c++ {
		b.Setp(c, int(c)%kernel.MaxPredRegs, isa.Reg(7), isa.Imm(-3))
	}
	for s := isa.Special(0); s.Valid(); s++ {
		b.Mov(8, isa.Sreg(s))
	}
	b.FMul(9, isa.Reg(9), isa.ImmF(1.5))
	b.Guard(3, false).IAdd(10, isa.Reg(10), isa.Imm(1))
	b.Guard(4, true).Exit()
	b.Bra("top")
	b.Label("tail")
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestEveryOpcodeRoundTrip: isa's table names every opcode and gives
// it a form; the every-opcode kernel and every registry kernel survive
// Parse(Print(k)); and each instruction's String is its line in Print
// and assembles back to the same isa.Instr.
func TestEveryOpcodeRoundTrip(t *testing.T) {
	for op := isa.Opcode(0); op.Valid(); op++ {
		name := op.String()
		if back, ok := isa.OpcodeByName(name); !ok || back != op || op.Form() == nil {
			t.Errorf("opcode %d: mnemonic %q, form %v: not in isa's table", uint8(op), name, op.Form())
		}
	}
	kernels := []*kernel.Kernel{everyOpcodeKernel(t)}
	for _, spec := range workloads.All() {
		kernels = append(kernels, spec.Build(1).Launch.Kernel)
	}
	for _, k := range kernels {
		text := Print(k)
		k2, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", k.Name, err, text)
		}
		if !reflect.DeepEqual(k, k2) {
			t.Errorf("%s: Parse(Print(k)) differs: %+v vs %+v", k.Name, k, k2)
		}
		var lines []string
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, "\t") {
				lines = append(lines, l[1:])
			}
		}
		if len(lines) != len(k.Instrs) {
			t.Fatalf("%s: %d instruction lines for %d instructions", k.Name, len(lines), len(k.Instrs))
		}
		for pc := range k.Instrs {
			in := &k.Instrs[pc]
			if s := in.String(); s != lines[pc] {
				t.Errorf("%s pc %d: String %q, Print line %q", k.Name, pc, s, lines[pc])
			}
			if got, err := assembleLine(k, in); err != nil || got != *in {
				t.Errorf("%s pc %d: %q assembles to %+v (%v), want %+v", k.Name, pc, in, got, err, *in)
			}
		}
	}
}

// assembleLine parses in.String() alone as pc 0 of a kernel with k's
// header, defining the label of every pc a branch may name.
func assembleLine(k *kernel.Kernel, in *isa.Instr) (isa.Instr, error) {
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel one\n.block 32\n.smem %d\n.params %d\nL0:\n\t%s\n", k.SmemPerBlock, k.NumParams, in)
	if in.Op == isa.BRA {
		for pc := 1; pc <= len(k.Instrs); pc++ {
			fmt.Fprintf(&b, "L%d:\n\tnop\n", pc)
		}
	}
	k1, err := Parse(b.String())
	if err != nil {
		return isa.Instr{}, err
	}
	return k1.Instrs[0], nil
}

// TestParseRejectsMalformedForms: one malformed line per operand form
// is rejected, and a no-operand mnemonic ignores trailing text.
func TestParseRejectsMalformedForms(t *testing.T) {
	rows := []struct {
		op   isa.Opcode
		line string
	}{
		{isa.MOV, "mov r0"},                // two operands wanted
		{isa.IADD, "iadd r0, r1, r2, r3"},  // one surplus
		{isa.IMAD, "imad r0, r1, r2"},      // four operands wanted
		{isa.SETP, "setp.zz p0, r1, r2"},   // unknown comparison
		{isa.SETP, "setp p0, r1, r2"},      // comparison missing
		{isa.LDG, "ld.global r0, [r1+x]"},  // bad offset
		{isa.STS, "st.shared r1+4, r2"},    // no brackets
		{isa.LDP, "ld.param r0, [oops]"},   // bad index
		{isa.BRA, "bra nowhere, reconv x"}, // undefined labels
		{isa.BAR, "bar.sync.lt"},           // a comparison on an opcode without one
	}
	covered := map[string]bool{}
	for _, r := range rows {
		src := ".kernel k\n.block 32\n.smem 64\n.params 1\n\t" + r.line + "\n\texit\n"
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: accepted", r.line)
		}
		covered[fmt.Sprint(r.op.Form())] = true
	}
	for op := isa.Opcode(0); op.Valid(); op++ {
		if f := fmt.Sprint(op.Form()); len(op.Form()) > 0 && !covered[f] {
			t.Errorf("no malformed row for the form of %s (%s)", op, f)
		}
	}
	k, err := Parse(".kernel k\n.block 32\n\tnop r0, anything at all\n\texit 7\n")
	if err != nil || len(k.Instrs) != 2 || k.Instrs[0].Op != isa.NOP || k.Instrs[1].Op != isa.EXIT {
		t.Errorf("no-operand mnemonics with trailing text: %v, %+v", err, k)
	}
}
