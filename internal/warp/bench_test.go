package warp

import (
	"testing"

	"gpushare/internal/isa"
)

// benchMem is an allocation-free GlobalMem over a flat word array.
type benchMem struct{ words [1024]uint32 }

func (m *benchMem) Load32(a uint32) uint32     { return m.words[a>>2&1023] }
func (m *benchMem) Store32(a uint32, v uint32) { m.words[a>>2&1023] = v }

// BenchmarkWarpExecute times one warp instruction of each shape the
// issue path is made of: a full-mask ALU op, the same op under a
// partial mask (temporary + blend), a compare, and scratchpad and
// global loads. The warp is rewound every iteration, so each is the
// steady-state cost of Execute alone; all must stay at 0 allocs/op.
func BenchmarkWarpExecute(b *testing.B) {
	lane4 := isa.Instr{Op: isa.SHL, GuardPred: isa.NoPred, Dst: isa.Reg(0), A: isa.Sreg(isa.SrLane), B: isa.Imm(2)}
	ffma := isa.Instr{Op: isa.FFMA, GuardPred: isa.NoPred, Dst: isa.Reg(1), A: isa.Reg(1), B: isa.Reg(2), C: isa.Imm(3)}
	masked := ffma
	masked.GuardPred = 0
	for _, bc := range []struct {
		name string
		in   isa.Instr
	}{
		{"alu_full", ffma},
		{"alu_masked", masked},
		{"setp", isa.Instr{Op: isa.SETP, GuardPred: isa.NoPred, Cmp: isa.CmpLT, Dst: isa.Pred(1), A: isa.Reg(0), B: isa.Imm(64)}},
		{"lds", isa.Instr{Op: isa.LDS, GuardPred: isa.NoPred, Dst: isa.Reg(3), A: isa.Reg(0), Off: 16}},
		{"ldg", isa.Instr{Op: isa.LDG, GuardPred: isa.NoPred, Dst: isa.Reg(3), A: isa.Reg(0), Off: 16}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			env := &Env{GridDim: 1, BlockDim: 32, Gmem: &benchMem{}, Smem: make([]byte, 512)}
			w := NewState(4, LanesMask(32))
			w.BindBlock(env, 0)
			setup := Decode(&lane4)
			if _, err := w.Execute(&setup, env, nil); err != nil { // r0 = lane*4
				b.Fatal(err)
			}
			w.preds[0] = 0x0f0f0f0f
			op := Decode(&bc.in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.simt.stack[0].pc = 0
				if _, err := w.Execute(&op, env, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
