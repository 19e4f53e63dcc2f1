package harness

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/hw"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// sharingPercents are the sweep points of Tables V-VIII.
var sharingPercents = []int{0, 10, 30, 50, 70, 90}

// paperExperiments declares one experiment per table and figure of the
// paper's evaluation (§VI) plus the §V storage formulas.
func paperExperiments() []experiment {
	return []experiment{
		fig1Blocks(workloads.Set1, "fig1a",
			"Number of resident thread blocks (register-limited apps, baseline)"),
		fig1Waste(workloads.Set1, "fig1b",
			"Register underutilization per SM (%)"),
		fig1Blocks(workloads.Set2, "fig1c",
			"Number of resident thread blocks (scratchpad-limited apps, baseline)"),
		fig1Waste(workloads.Set2, "fig1d",
			"Scratchpad underutilization per SM (%)"),
		fig8Blocks(workloads.Set1, "fig8a", SharedOWFUnrDyn,
			"Resident thread blocks: baseline vs register sharing"),
		fig8Blocks(workloads.Set2, "fig8b", SharedOWF,
			"Resident thread blocks: baseline vs scratchpad sharing"),
		ipcGainOver(workloads.Set1, "fig8c", SharedOWFUnrDyn, UnsharedLRR,
			"IPC improvement of register sharing (all optimizations) over Unshared-LRR (%)"),
		ipcGainOver(workloads.Set2, "fig8d", SharedOWF, UnsharedLRR,
			"IPC improvement of scratchpad sharing (OWF) over Unshared-LRR (%)"),
		// Fig. 9a/9b: the optimization ablations, NoOpt up to OWF.
		ablation(workloads.Set1, "fig9a",
			"Register sharing optimization ablation: IPC improvement over Unshared-LRR (%)",
			SharedLRRNoOpt, SharedLRRUnroll, SharedLRRUnrDyn, SharedOWFUnrDyn),
		ablation(workloads.Set2, "fig9b",
			"Scratchpad sharing ablation: IPC improvement over Unshared-LRR (%)",
			SharedLRRNoOpt, SharedOWF),
		fig9Cycles(workloads.Set1, "fig9c", SharedOWFUnrDyn,
			"Decrease in stall/idle cycles with register sharing (%)"),
		fig9Cycles(workloads.Set2, "fig9d", SharedOWF,
			"Decrease in stall/idle cycles with scratchpad sharing (%)"),
		ipcGainOver(workloads.Set1, "fig10a", SharedOWFUnrDyn, UnsharedGTO,
			"IPC improvement of register sharing over the GTO baseline (%)"),
		ipcGainOver(workloads.Set2, "fig10b", SharedOWF, UnsharedGTO,
			"IPC improvement of scratchpad sharing over the GTO baseline (%)"),
		ipcGainOver(workloads.Set1, "fig10c", SharedOWFUnrDyn, Unshared2LVL,
			"IPC improvement of register sharing over the two-level baseline (%)"),
		ipcGainOver(workloads.Set2, "fig10d", SharedOWF, Unshared2LVL,
			"IPC improvement of scratchpad sharing over the two-level baseline (%)"),
		// Fig. 11: sharing at the Table I size vs an unshared LRR baseline
		// given twice the resource.
		fig11(workloads.Set1, "fig11a", UnsharedLRR2xReg, SharedOWFUnrDyn, "Shared-OWF-Unroll-Dyn-Reg#32768",
			"IPC: Unshared-LRR with 64K registers vs register sharing with 32K"),
		fig11(workloads.Set2, "fig11b", UnsharedLRR2xShm, SharedOWF, "Shared-OWF-ShMem#16K",
			"IPC: Unshared-LRR with 32KB scratchpad vs scratchpad sharing with 16KB"),
		// Fig. 12: Set-3 across scheduling policies.
		ipcUnder(workloads.Set3, "fig12a", "Set-3 IPC under register sharing",
			UnsharedLRR, SharedLRRUnrDyn, UnsharedGTO, SharedGTOUnrDyn, SharedOWFUnrDyn),
		ipcUnder(workloads.Set3, "fig12b", "Set-3 IPC under scratchpad sharing",
			UnsharedLRR, SharedLRRNoOpt, UnsharedGTO, SharedGTO, SharedOWF),
		tableIPCSweep(workloads.Set1, "table5", SharedOWFUnrDyn,
			"Effect of register sharing percentage on IPC"),
		tableBlockSweep(workloads.Set1, "table6", config.ShareRegisters,
			"Effect of register sharing percentage on resident thread blocks"),
		tableIPCSweep(workloads.Set2, "table7", SharedOWF,
			"Effect of scratchpad sharing percentage on IPC"),
		tableBlockSweep(workloads.Set2, "table8", config.ShareScratchpad,
			"Effect of scratchpad sharing percentage on resident thread blocks"),
		hwOverhead(),
	}
}

// Simulation and cell constructors: the vocabulary the tables are
// declared in.

// named declares a workload under one of the paper's configurations at
// threshold t, in the sharing mode the paper evaluates its set under.
func named(spec *workloads.Spec, name ConfigName, t float64) sim {
	return sim{workload: spec.Name, label: string(name), cfg: buildConfig(name, sharingModeFor(spec), t)}
}

// variant declares a workload under a named configuration with one knob
// changed; the label gains a /suffix naming the change.
func variant(spec *workloads.Spec, name ConfigName, suffix string, change func(*config.Config)) sim {
	sm := named(spec, name, 0.1)
	sm.label += "/" + suffix
	change(&sm.cfg)
	return sm
}

// bestSharing names the all-optimizations sharing configuration of a
// workload's set.
func bestSharing(spec *workloads.Spec) ConfigName {
	if sharingModeFor(spec) == config.ShareScratchpad {
		return SharedOWF
	}
	return SharedOWFUnrDyn
}

// analytic declares a cell that needs no simulation. f runs when the
// table is rendered, not when it is declared.
func analytic(f func() float64) cell {
	return cell{val: func([]*stats.GPU) float64 { return f() }}
}

// ipc declares the IPC of one simulation.
func ipc(sm sim) cell {
	return cell{[]sim{sm}, func(g []*stats.GPU) float64 { return g[0].IPC() }}
}

// ipcGain declares the IPC improvement of sh over base, in percent.
func ipcGain(base, sh sim) cell {
	return cell{[]sim{base, sh}, func(g []*stats.GPU) float64 {
		return stats.PercentChange(g[0].IPC(), g[1].IPC())
	}}
}

// cycleDecrease declares the percent decrease of a cycle counter from
// base to sh.
func cycleDecrease(base, sh sim, cycles func(*stats.GPU) int64) cell {
	return cell{[]sim{base, sh}, func(g []*stats.GPU) float64 {
		return stats.PercentDecrease(float64(cycles(g[0])), float64(cycles(g[1])))
	}}
}

// occupancyFor computes the occupancy of a workload's kernel under a
// sharing mode and threshold.
func occupancyFor(spec *workloads.Spec, mode config.SharingMode, t float64) core.Occupancy {
	cfg := config.Default()
	cfg.Sharing = mode
	cfg.T = t
	inst := spec.Build(1) // occupancy is grid-size independent
	return core.ComputeOccupancy(&cfg, inst.Launch.Kernel)
}

// baselineBlocks declares a kernel's resident blocks without sharing.
func baselineBlocks(spec *workloads.Spec) cell {
	return analytic(func() float64 { return float64(occupancyFor(spec, config.ShareNone, 1).Baseline) })
}

// sharedBlocks declares a kernel's resident blocks under sharing.
func sharedBlocks(spec *workloads.Spec, mode config.SharingMode, t float64) cell {
	return analytic(func() float64 { return float64(occupancyFor(spec, mode, t).Max) })
}

// perWorkload declares one row per workload, named after it.
func perWorkload(specs []*workloads.Spec, cells func(*workloads.Spec) []cell) []row {
	rows := make([]row, len(specs))
	for i, spec := range specs {
		rows[i] = row{spec.Name, cells(spec)}
	}
	return rows
}

// cellsFor declares one cell per element of xs: per named configuration,
// per sweep point, per policy.
func cellsFor[T any](xs []T, c func(T) cell) []cell {
	cells := make([]cell, len(xs))
	for i, x := range xs {
		cells[i] = c(x)
	}
	return cells
}

// perPercent declares one cell per sharing percentage of Tables V-VIII,
// at threshold t = 1 - pct/100.
func perPercent(c func(t float64) cell) []cell {
	return cellsFor(sharingPercents, func(pct int) cell { return c(1 - float64(pct)/100) })
}

func fig1Blocks(set workloads.Set, id, title string) experiment {
	return experiment{id: id, title: title, columns: []string{"Blocks"},
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return []cell{baselineBlocks(spec)}
		})}
}

func fig1Waste(set workloads.Set, id, title string) experiment {
	return experiment{id: id, title: title, columns: []string{"Wastage%"},
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return []cell{analytic(func() float64 {
				cfg := config.Default()
				blocks := occupancyFor(spec, config.ShareNone, 1).Baseline
				k := spec.Build(1).Launch.Kernel
				if set == workloads.Set1 {
					return float64(cfg.RegsPerSM-blocks*k.RegsPerBlock()) / float64(cfg.RegsPerSM) * 100
				}
				return float64(cfg.SmemPerSM-blocks*k.SmemPerBlock) / float64(cfg.SmemPerSM) * 100
			})}
		})}
}

func fig8Blocks(set workloads.Set, id string, shared ConfigName, title string) experiment {
	return experiment{id: id, title: title, columns: []string{string(UnsharedLRR), string(shared)},
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return []cell{baselineBlocks(spec), sharedBlocks(spec, sharingModeFor(spec), 0.1)}
		})}
}

// ipcGainOver declares Figs. 8c/8d and 10: the sharing configuration's
// IPC improvement over an unshared baseline scheduler.
func ipcGainOver(set workloads.Set, id string, shared, baseline ConfigName, title string) experiment {
	return experiment{id: id, title: title, columns: []string{"Improvement%"},
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return []cell{ipcGain(named(spec, baseline, 0.1), named(spec, shared, 0.1))}
		})}
}

func ablation(set workloads.Set, id, title string, configs ...ConfigName) experiment {
	return experiment{id: id, title: title, columns: configNames(configs),
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return cellsFor(configs, func(cn ConfigName) cell {
				return ipcGain(named(spec, UnsharedLRR, 0.1), named(spec, cn, 0.1))
			})
		})}
}

func fig9Cycles(set workloads.Set, id string, shared ConfigName, title string) experiment {
	return experiment{id: id, title: title, columns: []string{"StallDecrease%", "IdleDecrease%"},
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			base, sh := named(spec, UnsharedLRR, 0.1), named(spec, shared, 0.1)
			return []cell{
				cycleDecrease(base, sh, (*stats.GPU).StallCycles),
				cycleDecrease(base, sh, (*stats.GPU).IdleCycles),
			}
		})}
}

func fig11(set workloads.Set, id string, big, shared ConfigName, sharedColumn, title string) experiment {
	return experiment{id: id, title: title, columns: []string{string(big), sharedColumn},
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return []cell{ipc(named(spec, big, 0.1)), ipc(named(spec, shared, 0.1))}
		})}
}

func ipcUnder(set workloads.Set, id, title string, configs ...ConfigName) experiment {
	return experiment{id: id, title: title, columns: configNames(configs),
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return cellsFor(configs, func(cn ConfigName) cell { return ipc(named(spec, cn, 0.1)) })
		})}
}

func tableIPCSweep(set workloads.Set, id string, shared ConfigName, title string) experiment {
	return experiment{id: id, title: title, columns: sweepColumns(),
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return perPercent(func(t float64) cell { return ipc(named(spec, shared, t)) })
		})}
}

func tableBlockSweep(set workloads.Set, id string, mode config.SharingMode, title string) experiment {
	return experiment{id: id, title: title, columns: sweepColumns(),
		rows: perWorkload(workloads.BySet(set), func(spec *workloads.Spec) []cell {
			return perPercent(func(t float64) cell { return sharedBlocks(spec, mode, t) })
		})}
}

// hwOverhead reports the Section V storage-overhead formulas for the
// Table I configuration.
func hwOverhead() experiment {
	cfg := config.Default()
	reg, smem := hw.ForConfig(&cfg)
	bits := func(o hw.Overhead) []cell {
		return []cell{
			analytic(func() float64 { return float64(o.PerSM) }),
			analytic(func() float64 { return float64(o.Total) }),
			analytic(func() float64 { return float64(o.Total) / 8 }),
		}
	}
	return experiment{id: "hw",
		title:   "Hardware storage overhead (Section V), bits",
		columns: []string{"PerSM", "Total", "TotalBytes"},
		rows:    []row{{"register", bits(reg)}, {"scratchpad", bits(smem)}}}
}

func configNames(cs []ConfigName) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = string(c)
	}
	return out
}

func sweepColumns() []string {
	out := make([]string, len(sharingPercents))
	for i, p := range sharingPercents {
		out[i] = fmt.Sprintf("%d%%", p)
	}
	return out
}
