package workloads_test

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/gpu"
	"gpushare/internal/workloads"
)

// paperOccupancy lists the paper's resident-block counts: baseline
// (Fig. 1a/1c and the 0% columns of Tables VI/VIII) and at 90% sharing
// (Fig. 8a/8b and the 90% columns of Tables VI/VIII).
var paperOccupancy = map[string]struct{ base, shared int }{
	"backprop": {5, 6}, "b+tree": {2, 3}, "hotspot": {3, 6}, "LIB": {4, 8},
	"MUM": {4, 6}, "mri-q": {5, 6}, "sgemm": {5, 8}, "stencil": {2, 3},
	"CONV1": {6, 8}, "CONV2": {3, 4}, "lavaMD": {2, 4}, "NW1": {7, 8},
	"NW2": {7, 8}, "SRAD1": {2, 4}, "SRAD2": {3, 5},
	"backprop2": {6, 6}, "BFS": {3, 3}, "gaussian": {8, 8}, "NN": {8, 8},
}

func TestRegistryComplete(t *testing.T) {
	if got := len(workloads.All()); got != 19 {
		t.Fatalf("registry has %d workloads, want 19", got)
	}
	if got := len(workloads.BySet(workloads.Set1)); got != 8 {
		t.Errorf("Set-1 has %d workloads, want 8", got)
	}
	if got := len(workloads.BySet(workloads.Set2)); got != 7 {
		t.Errorf("Set-2 has %d workloads, want 7", got)
	}
	if got := len(workloads.BySet(workloads.Set3)); got != 4 {
		t.Errorf("Set-3 has %d workloads, want 4", got)
	}
	for _, s := range workloads.All() {
		if _, ok := paperOccupancy[s.Name]; !ok {
			t.Errorf("workload %q missing from paper expectations", s.Name)
		}
	}
}

// TestFootprintsMatchSpecs verifies each built kernel carries exactly the
// resource footprint its workloads.Spec (and the paper's tables) declares.
func TestFootprintsMatchSpecs(t *testing.T) {
	for _, s := range workloads.All() {
		inst := s.Build(1)
		k := inst.Launch.Kernel
		if k.BlockDim != s.BlockDim {
			t.Errorf("%s: BlockDim = %d, want %d", s.Name, k.BlockDim, s.BlockDim)
		}
		if k.RegsPerThread != s.RegsPerThread {
			t.Errorf("%s: RegsPerThread = %d, want %d", s.Name, k.RegsPerThread, s.RegsPerThread)
		}
		if k.SmemPerBlock != s.SmemPerBlock {
			t.Errorf("%s: SmemPerBlock = %d, want %d", s.Name, k.SmemPerBlock, s.SmemPerBlock)
		}
		if err := k.Validate(); err != nil {
			t.Errorf("%s: kernel invalid: %v", s.Name, err)
		}
	}
}

// TestOccupancyMatchesPaper checks baseline and 90%-sharing resident
// block counts against Fig. 1 / Fig. 8 / Tables VI and VIII.
func TestOccupancyMatchesPaper(t *testing.T) {
	for _, s := range workloads.All() {
		want := paperOccupancy[s.Name]
		inst := s.Build(1)

		base := config.Default()
		sim := gpu.MustNew(base)
		if got := sim.Occupancy(inst.Launch.Kernel).Baseline; got != want.base {
			t.Errorf("%s: baseline blocks = %d, paper says %d", s.Name, got, want.base)
		}

		shared := config.Default()
		shared.Sharing = s.Set.Sharing()
		shared.T = 0.1
		sim2 := gpu.MustNew(shared)
		if got := sim2.Occupancy(inst.Launch.Kernel).Max; got != want.shared {
			t.Errorf("%s: 90%%-sharing blocks = %d, paper says %d", s.Name, got, want.shared)
		}
	}
}

// TestWorkloadsRunAndVerify runs every workload end-to-end under the
// baseline configuration and validates its functional outputs.
func TestWorkloadsRunAndVerify(t *testing.T) {
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			inst := s.Build(1)
			sim := gpu.MustNew(config.Default())
			inst.Setup(sim.Mem)
			g, err := sim.Run(inst.Launch)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if inst.Check != nil {
				if err := inst.Check(sim.Mem); err != nil {
					t.Fatalf("functional check: %v", err)
				}
			}
			if g.IPC() <= 0 || g.IPC() > 896 {
				t.Errorf("IPC = %.1f out of range (max 14 SMs x 2 x 32 = 896)", g.IPC())
			}
			t.Logf("%-10s cycles=%7d IPC=%6.1f stall%%=%4.1f idle%%=%4.1f L1miss=%4.1f%% L2miss=%4.1f%%",
				s.Name, g.Cycles, g.IPC(),
				float64(g.StallCycles())/float64(g.Cycles*14)*100,
				float64(g.IdleCycles())/float64(g.Cycles*14)*100,
				g.L1.MissRate()*100, g.L2.MissRate()*100)
		})
	}
}

// TestWorkloadsCorrectUnderSharing re-runs every workload with its
// sharing mode, OWF, unrolling, and dynamic warp execution enabled:
// outputs must stay correct.
func TestWorkloadsCorrectUnderSharing(t *testing.T) {
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			inst := s.Build(1)
			cfg := config.Default()
			cfg.Sharing = s.Set.Sharing()
			cfg.T = 0.1
			cfg.Sched = config.SchedOWF
			if cfg.Sharing == config.ShareRegisters {
				cfg.UnrollRegs = true
				cfg.DynWarp = true
			}
			sim := gpu.MustNew(cfg)
			inst.Setup(sim.Mem)
			if _, err := sim.Run(inst.Launch); err != nil {
				t.Fatalf("run: %v", err)
			}
			if inst.Check != nil {
				if err := inst.Check(sim.Mem); err != nil {
					t.Fatalf("functional check under sharing: %v", err)
				}
			}
		})
	}
}

// TestEpilogueMicroWorkload covers the extension microbenchmark (not in
// the 19-entry registry): functional correctness under the baseline and
// under register sharing with early release.
func TestEpilogueMicroWorkload(t *testing.T) {
	for _, mode := range []string{"baseline", "early-release"} {
		cfg := config.Default()
		if mode == "early-release" {
			cfg.Sharing = config.ShareRegisters
			cfg.T = 0.1
			cfg.Sched = config.SchedOWF
			cfg.UnrollRegs = true
			cfg.EarlyRegRelease = true
		}
		sim := gpu.MustNew(cfg)
		inst := workloads.EpilogueMicro.Build(1)
		inst.Setup(sim.Mem)
		g, err := sim.Run(inst.Launch)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := inst.Check(sim.Mem); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if mode == "early-release" {
			var rel int64
			for i := range g.SMs {
				rel += g.SMs[i].EarlyRegRelease
			}
			if rel == 0 {
				t.Error("early releases never fired on the epilogue microbenchmark")
			}
		}
	}
}
