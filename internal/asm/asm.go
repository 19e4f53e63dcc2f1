// Package asm implements a PTXPlus-flavoured textual assembly format for
// simulator kernels: a parser and a printer that round-trip through
// kernel.Kernel. The format is what cmd/gasm consumes and what the
// register-unrolling demonstration (Fig. 7 of the paper) operates on.
//
// Package isa owns the instruction syntax: every mnemonic, operand form
// and name, and (*isa.Instr).String, which prints an instruction's line.
// This package adds the directives, the label lines and the lexing of
// operand text; Parse feeds a kernel.Builder, whose Build resolves the
// labels, defaults the register footprint and validates the kernel.
//
// Example:
//
//	.kernel saxpy
//	.block 256
//	.regs 8
//	.params 3
//
//	        imad r0, %ctaid, %ntid, %tid
//	        shl r1, r0, 2
//	        ld.param r2, [0]
//	        iadd r2, r2, r1
//	        ld.global r3, [r2+0]
//	loop:
//	        setp.lt p0, r4, 100
//	@p0     bra loop, reconv done
//	done:
//	        exit
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// Print renders a kernel as assembly text that Parse accepts: the
// directives, then each instruction's String under a label line
// (isa.Label) wherever a branch targets or reconverges.
func Print(k *kernel.Kernel) string {
	labeled := map[int]bool{}
	for _, in := range k.Instrs {
		if in.Op == isa.BRA {
			labeled[in.Target], labeled[in.Reconv] = true, true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", k.Name)
	fmt.Fprintf(&b, ".block %d\n", k.BlockDim)
	if k.BlockDimY > 1 {
		fmt.Fprintf(&b, ".blocky %d\n", k.BlockDimY)
	}
	fmt.Fprintf(&b, ".regs %d\n", k.RegsPerThread)
	if k.SmemPerBlock > 0 {
		fmt.Fprintf(&b, ".smem %d\n", k.SmemPerBlock)
	}
	if k.NumParams > 0 {
		fmt.Fprintf(&b, ".params %d\n", k.NumParams)
	}
	b.WriteByte('\n')
	for pc := 0; pc <= len(k.Instrs); pc++ {
		if labeled[pc] {
			b.WriteString(isa.Label(pc) + ":\n")
		}
		if pc < len(k.Instrs) {
			b.WriteString("\t" + k.Instrs[pc].String() + "\n")
		}
	}
	return b.String()
}

// Parse assembles text into a validated kernel.
func Parse(text string) (*kernel.Kernel, error) {
	b := kernel.NewBuilder("", 0)
	for lineNo, raw := range strings.Split(text, "\n") {
		line, _, _ := strings.Cut(raw, "//")
		line = strings.TrimSpace(line)
		var err error
		switch {
		case line == "":
		case strings.HasPrefix(line, "."):
			err = directive(b, line)
		case strings.HasSuffix(line, ":"):
			b.Label(strings.TrimSuffix(line, ":"))
		default:
			err = instruction(b, line)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
	}
	return b.Build()
}

// intDirectives are the header directives that take one integer.
var intDirectives = map[string]func(*kernel.Builder, int) *kernel.Builder{
	".block":  (*kernel.Builder).SetBlockDim,
	".blocky": (*kernel.Builder).SetBlockDimY,
	".regs":   (*kernel.Builder).SetRegs,
	".smem":   (*kernel.Builder).SetSmem,
	".params": (*kernel.Builder).Params,
}

func directive(b *kernel.Builder, line string) error {
	fields := strings.Fields(line)
	key, arg := fields[0], ""
	if len(fields) > 1 {
		arg = fields[1]
	}
	if key == ".kernel" {
		b.SetName(arg)
		return nil
	}
	set, ok := intDirectives[key]
	if !ok {
		return fmt.Errorf("unknown directive %s", key)
	}
	n, err := strconv.Atoi(arg)
	if err != nil {
		return fmt.Errorf("%s: bad integer %q", key, arg)
	}
	set(b, n)
	return nil
}

// instruction lexes one instruction line: an optional guard, the
// mnemonic, then one operand per slot of the opcode's isa form.
func instruction(b *kernel.Builder, line string) error {
	in := isa.Instr{GuardPred: isa.NoPred}

	// Guard prefix: @pN or @!pN.
	if g, ok := strings.CutPrefix(line, "@"); ok {
		sp := strings.IndexAny(g, " \t")
		if sp < 0 {
			return fmt.Errorf("guard with no instruction")
		}
		g, line = g[:sp], strings.TrimSpace(g[sp+1:])
		g, in.GuardNeg = strings.CutPrefix(g, "!")
		num, isPred := strings.CutPrefix(g, "p")
		n, err := strconv.Atoi(num)
		if !isPred || err != nil || n < 0 || n >= kernel.MaxPredRegs {
			return fmt.Errorf("bad guard %q (predicates are p0..p%d)", g, kernel.MaxPredRegs-1)
		}
		in.GuardPred = int8(n)
	}

	mnemonic, rest := line, ""
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		mnemonic, rest = line[:sp], strings.TrimSpace(line[sp+1:])
	}
	// A comparison is a mnemonic suffix: setp.<cmp>.
	op, ok := isa.OpcodeByName(mnemonic)
	suffix := ""
	if i := strings.LastIndexByte(mnemonic, '.'); !ok && i >= 0 {
		op, ok = isa.OpcodeByName(mnemonic[:i])
		suffix = mnemonic[i+1:]
		ok = ok && hasCmp(op)
	}
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in.Op = op
	form := op.Form()
	if hasCmp(op) {
		if in.Cmp, ok = isa.CmpByName(suffix); !ok {
			return fmt.Errorf("unknown comparison in %q", mnemonic)
		}
		form = form[1:]
	}
	if len(form) == 0 { // nop, bar.sync, exit: the rest of the line is ignored
		b.Emit(in)
		return nil
	}

	// The last slot takes the rest of the line, so surplus operands
	// fail to lex there. Only a branch's reconv slot may be left out.
	ops := strings.SplitN(rest, ",", len(form))
	if n := len(ops); n < len(form) && !(n == len(form)-1 && form[n] == isa.SlotReconv) {
		return fmt.Errorf("want %d operands, got %d in %q", len(form), n, rest)
	}
	var target, reconv string
	for i, s := range form {
		text := ""
		if i < len(ops) {
			text = strings.TrimSpace(ops[i])
		}
		var err error
		switch s {
		case isa.SlotMem:
			in.A, in.Off, err = parseMemRef(text)
		case isa.SlotParam:
			in.Off, err = parseParam(text)
		case isa.SlotTarget:
			target = text
		case isa.SlotReconv:
			reconv = strings.TrimSpace(strings.TrimPrefix(text, "reconv"))
		default:
			*in.OperandAt(s), err = parseOperand(text)
		}
		if err != nil {
			return err
		}
	}
	if op != isa.BRA {
		b.Emit(in)
		return nil
	}
	if reconv == "" {
		reconv = target // unconditional branch
	}
	b.Branch(in, target, reconv)
	return nil
}

func hasCmp(op isa.Opcode) bool {
	f := op.Form()
	return len(f) > 0 && f[0] == isa.SlotCmp
}

func parseOperand(s string) (isa.Operand, error) {
	switch {
	case s == "":
		return isa.None, fmt.Errorf("empty operand")
	case strings.HasPrefix(s, "r"), strings.HasPrefix(s, "p"):
		// The index must fit the operand's register field.
		n, err := strconv.ParseUint(s[1:], 10, 8)
		if err != nil {
			return isa.None, fmt.Errorf("bad register %q (indices are 0..255)", s)
		}
		if s[0] == 'r' {
			return isa.Reg(int(n)), nil
		}
		return isa.Pred(int(n)), nil
	case strings.HasPrefix(s, "%"):
		if sr, ok := isa.SpecialByName(s); ok {
			return isa.Sreg(sr), nil
		}
		return isa.None, fmt.Errorf("unknown special register %q", s)
	}
	if strings.HasSuffix(s, "f") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "f"), 32)
		if err != nil {
			return isa.None, fmt.Errorf("bad float immediate %q", s)
		}
		return isa.ImmF(float32(f)), nil
	}
	n, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return isa.None, fmt.Errorf("bad operand %q", s)
	}
	return isa.Imm(int32(n)), nil
}

// parseParam lexes a parameter index, [n]; the brackets may be left out.
func parseParam(s string) (int32, error) {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(s, "["), "]"))
	if err != nil {
		return 0, fmt.Errorf("bad param index %q", s)
	}
	return int32(n), nil
}

func parseMemRef(s string) (isa.Operand, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return isa.None, 0, fmt.Errorf("bad memory reference %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return isa.None, 0, fmt.Errorf("empty memory reference %q", s)
	}
	// forms: [rN], [rN+off], [rN-off]
	idx := strings.IndexAny(inner[1:], "+-")
	if idx < 0 {
		base, err := parseOperand(inner)
		return base, 0, err
	}
	idx++
	base, err := parseOperand(strings.TrimSpace(inner[:idx]))
	if err != nil {
		return isa.None, 0, err
	}
	off, err := strconv.ParseInt(strings.TrimSpace(inner[idx:]), 0, 32)
	if err != nil {
		return isa.None, 0, fmt.Errorf("bad offset in %q", s)
	}
	return base, int32(off), nil
}
