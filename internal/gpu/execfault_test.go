package gpu

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// TestFunctionalFaultsAreTypedErrors pins the two ways a kernel can be
// functionally wrong at run time — a scratchpad access out of bounds
// and a barrier inside divergent control flow — to the KindExec error
// the issue stage raises for them: the cycle, SM and warp of the
// faulting issue and the forensic text naming the instruction and lane.
func TestFunctionalFaultsAreTypedErrors(t *testing.T) {
	oob := kernel.NewBuilder("smem-oob", 64)
	oob.SetRegs(4).SetSmem(256)
	oob.Shl(0, isa.Sreg(isa.SrTid), isa.Imm(2)) // thread t reads word t+2: the last lane of the second warp runs past the 256+4 bytes
	oob.LdS(1, isa.Reg(0), 8)
	oob.Exit()

	div := kernel.NewBuilder("diverged-bar", 32)
	div.SetRegs(4)
	div.Setp(isa.CmpLT, 0, isa.Sreg(isa.SrLane), isa.Imm(16))
	div.BraIf(0, false, "side", "join")
	div.Label("side")
	div.Bar()
	div.Label("join")
	div.Exit()

	for _, tc := range []struct {
		b     *kernel.Builder
		cycle int64
		warp  int
		want  string
	}{
		{oob, 7, 1, "sim error [exec] cycle=7 SM=0 warp=1: functional fault executing pc 1 (ld.shared r1, [r0+8]): " +
			"warp 1 lane 31: scratchpad load at byte 260 out of bounds (size 260)"},
		{div, 7, 0, "sim error [exec] cycle=7 SM=0 warp=0: functional fault executing pc 2 (bar.sync): " +
			"warp 0: barrier executed while diverged (depth 3); kernels must only place bar.sync at convergence points"},
	} {
		k := tc.b.MustBuild()
		sim := MustNew(config.Default())
		_, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: 1})
		se, ok := simerr.As(err)
		if !ok || se.Kind != simerr.KindExec {
			t.Fatalf("%s: err = %v, want a KindExec SimError", k.Name, err)
		}
		if se.Cycle != tc.cycle || se.SM != 0 || se.Warp != tc.warp {
			t.Errorf("%s: fault at cycle %d SM %d warp %d, want cycle %d SM 0 warp %d", k.Name, se.Cycle, se.SM, se.Warp, tc.cycle, tc.warp)
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", k.Name, err, tc.want)
		}
		if se.Dump == nil {
			t.Errorf("%s: no forensic dump attached", k.Name)
		}
	}
}
