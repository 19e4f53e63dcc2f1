package gpu

import (
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
)

// vecAddKernel builds: out[i] = a[i] + b[i] for i = global thread id.
func vecAddKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("vecadd", 128)
	b.Params(3) // a, b, out
	const (
		rTid = iota
		rA
		rB
		rOut
		rVa
		rVb
		rSum
		rOff
	)
	// tid = ctaid*ntid + tid
	b.IMad(rTid, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.Shl(rOff, isa.Reg(rTid), isa.Imm(2))
	b.LdParam(rA, 0)
	b.LdParam(rB, 1)
	b.LdParam(rOut, 2)
	b.IAdd(rA, isa.Reg(rA), isa.Reg(rOff))
	b.IAdd(rB, isa.Reg(rB), isa.Reg(rOff))
	b.IAdd(rOut, isa.Reg(rOut), isa.Reg(rOff))
	b.LdG(rVa, isa.Reg(rA), 0)
	b.LdG(rVb, isa.Reg(rB), 0)
	b.IAdd(rSum, isa.Reg(rVa), isa.Reg(rVb))
	b.StG(isa.Reg(rOut), 0, isa.Reg(rSum))
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatalf("build vecadd: %v", err)
	}
	return k
}

func TestVecAddEndToEnd(t *testing.T) {
	cfg := config.Default()
	sim := MustNew(cfg)

	k := vecAddKernel(t)
	const n = 128 * 56 // 56 blocks over 14 SMs
	av := make([]uint32, n)
	bv := make([]uint32, n)
	for i := range av {
		av[i] = uint32(i * 3)
		bv[i] = uint32(1000 - i)
	}
	aAddr := sim.Mem.Alloc(4 * n)
	bAddr := sim.Mem.Alloc(4 * n)
	oAddr := sim.Mem.Alloc(4 * n)
	sim.Mem.WriteWords(aAddr, av)
	sim.Mem.WriteWords(bAddr, bv)

	g, err := sim.Run(&kernel.Launch{
		Kernel:  k,
		GridDim: n / 128,
		Params:  []uint32{aAddr, bAddr, oAddr},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	out := sim.Mem.ReadWords(oAddr, n)
	for i := range out {
		if want := av[i] + bv[i]; out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	if g.Cycles <= 0 {
		t.Fatalf("cycles = %d, want > 0", g.Cycles)
	}
	const instrsPerThread = 13
	wantWarpInstrs := int64(n / 32 * instrsPerThread)
	if got := g.TotalWarpInstrs(); got != wantWarpInstrs {
		t.Errorf("warp instrs = %d, want %d", got, wantWarpInstrs)
	}
	if got := g.TotalThreadInstrs(); got != int64(n)*instrsPerThread {
		t.Errorf("thread instrs = %d, want %d", got, int64(n)*instrsPerThread)
	}
	if g.IPC() <= 0 {
		t.Errorf("IPC = %v, want > 0", g.IPC())
	}
	if g.L1.Accesses == 0 {
		t.Errorf("expected L1 traffic")
	}
	t.Logf("vecadd: cycles=%d IPC=%.1f stall=%d idle=%d L1miss=%.1f%%",
		g.Cycles, g.IPC(), g.StallCycles(), g.IdleCycles(), g.L1.MissRate()*100)
}

func TestVecAddAllSchedulers(t *testing.T) {
	for _, pol := range []config.SchedPolicy{config.SchedLRR, config.SchedGTO, config.SchedTwoLevel, config.SchedOWF} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.Sched = pol
			sim := MustNew(cfg)
			k := vecAddKernel(t)
			const n = 128 * 28
			aAddr := sim.Mem.Alloc(4 * n)
			bAddr := sim.Mem.Alloc(4 * n)
			oAddr := sim.Mem.Alloc(4 * n)
			for i := 0; i < n; i++ {
				sim.Mem.Store32(aAddr+uint32(4*i), uint32(i))
				sim.Mem.Store32(bAddr+uint32(4*i), uint32(2*i))
			}
			_, err := sim.Run(&kernel.Launch{Kernel: k, GridDim: n / 128, Params: []uint32{aAddr, bAddr, oAddr}})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for i := 0; i < n; i++ {
				if got := sim.Mem.Load32(oAddr + uint32(4*i)); got != uint32(3*i) {
					t.Fatalf("out[%d] = %d, want %d", i, got, 3*i)
				}
			}
		})
	}
}

// TestEngineEnvParsesStrictly: the engine environment variables parse
// as a boolean and a non-negative integer. A malformed value fails New
// with a config error naming the variable instead of quietly meaning
// "off" (or, for GPUSHARE_REFERENCE=false, "on").
func TestEngineEnvParsesStrictly(t *testing.T) {
	for _, c := range []struct {
		name, value string
		reference   bool
		stride      int64
		bad         bool
	}{
		{"GPUSHARE_REFERENCE", "", false, 0, false},
		{"GPUSHARE_REFERENCE", "1", true, 0, false},
		{"GPUSHARE_REFERENCE", "true", true, 0, false},
		{"GPUSHARE_REFERENCE", "0", false, 0, false},
		{"GPUSHARE_REFERENCE", "false", false, 0, false},
		{"GPUSHARE_REFERENCE", "yes", false, 0, true},
		{"GPUSHARE_INVARIANT_STRIDE", "", false, 0, false},
		{"GPUSHARE_INVARIANT_STRIDE", "0", false, 0, false},
		{"GPUSHARE_INVARIANT_STRIDE", "256", false, 256, false},
		{"GPUSHARE_INVARIANT_STRIDE", "-1", false, 0, true},
		{"GPUSHARE_INVARIANT_STRIDE", "2.5e2", false, 0, true},
		{"GPUSHARE_INVARIANT_STRIDE", "256 ", false, 0, true},
	} {
		t.Run(c.name+"="+c.value, func(t *testing.T) {
			t.Setenv("GPUSHARE_REFERENCE", "")
			t.Setenv("GPUSHARE_INVARIANT_STRIDE", "")
			t.Setenv(c.name, c.value)
			sim, err := New(config.Default())
			if c.bad {
				se, ok := simerr.As(err)
				if !ok || se.Kind != simerr.KindConfig || !strings.Contains(err.Error(), c.name) {
					t.Fatalf("New = %v, want a config error naming %s", err, c.name)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sim.Cfg.Reference != c.reference || sim.envStride != c.stride {
				t.Errorf("reference %v, stride %d; want %v, %d", sim.Cfg.Reference, sim.envStride, c.reference, c.stride)
			}
		})
	}
}

// TestL1HitLatencyFloor: an L1 hit is timed from its issue, after the
// SM has drained its cycle's writebacks, so a zero-cycle hit would be
// stranded and its warp wait for the watchdog. New refuses it as a
// config error, and the shortest hit that is accepted, one cycle, runs
// gaussian to completion with its functional check passing.
func TestL1HitLatencyFloor(t *testing.T) {
	cfg := config.Default()
	cfg.L1HitLat = 0
	_, err := New(cfg)
	if se, ok := simerr.As(err); !ok || se.Kind != simerr.KindConfig || !strings.Contains(err.Error(), "L1HitLat") {
		t.Fatalf("New with L1HitLat 0 = %v, want a config error naming L1HitLat", err)
	}
	cfg.L1HitLat = 1
	g, err := simulate(cfg, "gaussian", nil, 1, nil, nil)
	if err != nil {
		t.Fatalf("L1HitLat 1: %v", err)
	}
	if g.L1.Hits == 0 {
		t.Fatal("gaussian hit its L1 zero times: the one-cycle hit went untested")
	}
}
