package main

import (
	"testing"

	"gpushare"
)

// TestL2SurvivesLaunchBoundaries asserts the property the multi-launch
// walkthrough relies on: the L2 is a persistent structure of the
// simulator, not of a launch. Running the same kernel twice on one
// simulator must show the second launch hitting lines the first one
// filled, and an explicit FlushCaches must restore the cold-start miss
// profile exactly.
func TestL2SurvivesLaunchBoundaries(t *testing.T) {
	const (
		blockDim = 128
		grid     = 16
		words    = blockDim * grid
	)
	build := func() (*gpushare.Simulator, *gpushare.Launch) {
		// One global load + store per thread over a shared buffer: every
		// line the grid touches lands in the L2.
		b := gpushare.NewKernel("touch", blockDim)
		b.Params(1).SetRegs(8)
		b.Mov(0, gpushare.Sreg(gpushare.SrTid))
		b.IMad(0, gpushare.Sreg(gpushare.SrCtaid), gpushare.Sreg(gpushare.SrNtid), gpushare.Reg(0))
		b.Shl(0, gpushare.Reg(0), gpushare.Imm(2))
		b.LdParam(1, 0)
		b.IAdd(0, gpushare.Reg(0), gpushare.Reg(1))
		b.LdG(2, gpushare.Reg(0), 0)
		b.IAdd(2, gpushare.Reg(2), gpushare.Imm(1))
		b.StG(gpushare.Reg(0), 0, gpushare.Reg(2))
		b.Exit()
		k, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := gpushare.NewSimulator(gpushare.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		buf := sim.Mem.Alloc(4 * words)
		return sim, &gpushare.Launch{Kernel: k, GridDim: grid, Params: []uint32{buf}}
	}

	// Every launch reports its own L2 counters (the L2's contents persist
	// across launches, its statistics do not pile up).
	sim, launch := build()
	cold, err := sim.Run(launch)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sim.Run(launch)
	if err != nil {
		t.Fatal(err)
	}
	if cold.L2.Misses == 0 {
		t.Fatal("cold launch missed nothing in the L2; the kernel is not exercising the cache")
	}
	if warm.L2.Misses >= cold.L2.Misses {
		t.Errorf("second launch missed %d L2 lines, first missed %d: L2 state did not survive the launch boundary",
			warm.L2.Misses, cold.L2.Misses)
	}
	if warm.L2.Hits <= cold.L2.Hits {
		t.Errorf("second launch hit %d L2 lines vs %d on the first: expected warm reuse", warm.L2.Hits, cold.L2.Hits)
	}

	// Flushing the caches must restore the cold start exactly — same
	// kernel, same addresses, empty L2, closed DRAM rows, a clock that
	// starts at 0: the same statistics, cycle count included.
	sim.FlushCaches()
	flushed, err := sim.Run(launch)
	if err != nil {
		t.Fatal(err)
	}
	if flushed.L2 != cold.L2 || flushed.DRAM != cold.DRAM || flushed.Cycles != cold.Cycles {
		t.Errorf("post-flush launch: %d cycles, L2 %+v, DRAM %+v; cold launch: %d cycles, L2 %+v, DRAM %+v: FlushCaches is not a cold start",
			flushed.Cycles, flushed.L2, flushed.DRAM, cold.Cycles, cold.L2, cold.DRAM)
	}
}
