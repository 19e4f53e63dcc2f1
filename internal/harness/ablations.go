package harness

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/stats"
	"gpushare/internal/workloads"
)

// Ablation experiments ("ext-*"): studies beyond the paper's published
// figures — its §VIII future-work items (early shared-register release,
// cache replacement policies) and sensitivity sweeps over the simulator
// design knobs DESIGN.md calls out (CTA launch latency, MSHR capacity).
// They run on representative workload subsets to stay affordable.

func ablationExperiments() []experiment {
	return []experiment{extEarlyRelease(), extL1Policy(), extLaunchLat(), extMSHR(), extRFBanks()}
}

// specs resolves workload names; a misspelt name is a declaration bug
// and panics when the registry is first built.
func specs(names ...string) []*workloads.Spec {
	out := make([]*workloads.Spec, len(names))
	for i, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			panic("harness: " + err.Error())
		}
		out[i] = spec
	}
	return out
}

// extEarlyRelease implements the paper's first §VIII item: release a
// warp's shared-register lock once live-range analysis proves the shared
// pool is dead. Reported as IPC improvement over Unshared-LRR, with and
// without the extension, plus the number of early releases observed.
//
// The benchmark proxies (like most real kernels) keep shared registers
// live almost to the end, so releases fire in the epilogue and barely
// move IPC — evidence for the paper's remark that the analysis needs
// *instruction reordering* alongside it. The "epilogue" row is a
// microbenchmark built with a long register-dead tail, where the
// mechanism's benefit is visible in isolation.
func extEarlyRelease() experiment {
	return experiment{id: "ext-earlyrelease",
		title:   "§VIII ext.: early shared-register release (IPC improvement over Unshared-LRR, %)",
		columns: []string{"Shared-OWF-Unroll", "+EarlyRelease", "EarlyReleases"},
		notes:   "proxies keep shared registers live to the end (release ~= warp finish); the epilogue microbenchmark isolates the mechanism",
		rows: perWorkload(specs("backprop", "hotspot", "MUM", "sgemm", "epilogue"), func(spec *workloads.Spec) []cell {
			base := named(spec, UnsharedLRR, 0.1)
			// Dynamic warp execution is disabled in this ablation: after an
			// early release the partner block takes ownership, which would
			// turn the releasing block's memory-bound tail into gated
			// non-owner traffic and mask the effect under study.
			sh := named(spec, SharedOWFUnrDyn, 0.1)
			sh.label = "Shared-OWF-Unroll"
			sh.cfg.DynWarp = false
			rel := sh
			rel.label = "Shared-OWF-Unroll+Rel"
			rel.cfg.EarlyRegRelease = true
			return []cell{
				ipcGain(base, sh),
				ipcGain(base, rel),
				{[]sim{rel}, func(g []*stats.GPU) float64 {
					var releases int64
					for i := range g[0].SMs {
						releases += g[0].SMs[i].EarlyRegRelease
					}
					return float64(releases)
				}},
			}
		})}
}

// extL1Policy implements the paper's second §VIII item: the effect of L1
// replacement policies on register sharing. Columns report the sharing
// IPC gain over an Unshared-LRR baseline using the same policy.
func extL1Policy() experiment {
	return experiment{id: "ext-l1policy",
		title:   "§VIII ext.: register-sharing IPC gain under L1 replacement policies (%)",
		columns: []string{"LRU", "FIFO", "Rand"},
		rows: perWorkload(specs("hotspot", "MUM", "mri-q", "stencil"), func(spec *workloads.Spec) []cell {
			policies := []config.CachePolicy{config.PolicyLRU, config.PolicyFIFO, config.PolicyRand}
			return cellsFor(policies, func(pol config.CachePolicy) cell {
				set := func(c *config.Config) { c.L1Policy = pol }
				return ipcGain(
					variant(spec, UnsharedLRR, pol.String(), set),
					variant(spec, SharedOWFUnrDyn, pol.String(), set))
			})
		})}
}

// extLaunchLat sweeps the CTA dispatch latency: the staged non-owner
// block of a sharing pair hides exactly this gap, so the sharing gain
// should grow with it.
func extLaunchLat() experiment {
	return experiment{id: "ext-launchlat",
		title:   "Sensitivity: sharing IPC gain vs CTA launch latency (%)",
		columns: []string{"lat=0", "lat=250", "lat=1000"},
		rows: perWorkload(specs("hotspot", "CONV1", "SRAD2"), func(spec *workloads.Spec) []cell {
			return cellsFor([]int{0, 250, 1000}, func(lat int) cell {
				suffix := fmt.Sprintf("lat%d", lat)
				set := func(c *config.Config) { c.CTALaunchLat = lat }
				return ipcGain(
					variant(spec, UnsharedLRR, suffix, set),
					variant(spec, bestSharing(spec), suffix, set))
			})
		})}
}

// extMSHR sweeps the per-SM MSHR capacity, the structural cap on
// memory-level parallelism for the divergent workloads.
func extMSHR() experiment {
	return experiment{id: "ext-mshr",
		title:   "Sensitivity: baseline IPC vs L1 MSHR capacity",
		columns: []string{"mshr=16", "mshr=32", "mshr=64"},
		rows: perWorkload(specs("MUM", "b+tree", "backprop"), func(spec *workloads.Spec) []cell {
			return cellsFor([]int{16, 32, 64}, func(n int) cell {
				return ipc(variant(spec, UnsharedLRR, fmt.Sprintf("mshr%d", n),
					func(c *config.Config) { c.L1MSHRs = n }))
			})
		})}
}

// extRFBanks enables the optional register-file bank-conflict model
// (Fig. 3's banked register file) and reports its IPC cost on compute-
// heavy workloads, baseline vs register sharing.
func extRFBanks() experiment {
	return experiment{id: "ext-rfbanks",
		title:   "Fidelity: IPC with the register-file bank-conflict model (16 banks)",
		columns: []string{"base-IPC", "base+RF-IPC", "shared-gain%", "shared+RF-gain%"},
		rows: perWorkload(specs("hotspot", "sgemm", "lavaMD"), func(spec *workloads.Spec) []cell {
			rf16 := func(c *config.Config) { c.RFBanks = 16 }
			base, sh := named(spec, UnsharedLRR, 0.1), named(spec, bestSharing(spec), 0.1)
			baseRF := variant(spec, UnsharedLRR, "rf16", rf16)
			shRF := variant(spec, bestSharing(spec), "rf16", rf16)
			return []cell{ipc(base), ipc(baseRF), ipcGain(base, sh), ipcGain(baseRF, shRF)}
		})}
}
