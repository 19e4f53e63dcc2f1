// Multi-tenant experiment family: what co-residency costs each tenant
// (interference), what the three tenancy policies trade between
// isolation and throughput, and how the bin-packing strategy shapes the
// placement. These are not paper tables — the paper evaluates
// intra-kernel sharing — but the natural next question its Section VII
// poses: the same resource-sharing machinery applied across kernels.
package harness

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

func tenancyExperiments() []experiment {
	return []experiment{tenInterference(), tenIsolation(), tenPacking()}
}

// tenPairs are the co-residency mixes under study: a register-limited
// tenant against a scratchpad-limited one (disjoint bottlenecks), and
// two register-limited tenants contending for the same resource.
var tenPairs = [][2]string{
	{"gaussian", "CONV2"},
	{"gaussian", "NN"},
}

// tenQuota is the time-slice quantum the policy experiments use: long
// enough to amortize the cold-cache restart, short enough that both
// tenants make visible progress interleaved.
const tenQuota = 10_000

// pairRun declares the two-tenant simulation of a mix under a policy,
// on the default configuration.
func pairRun(label string, pair [2]string, policy tenancy.Policy, pack tenancy.Packing) sim {
	spec := &tenancy.Spec{
		Policy:  policy,
		Packing: pack,
		Tenants: []tenancy.TenantSpec{
			{Workload: pair[0]},
			{Workload: pair[1]},
		},
	}
	if policy == tenancy.TimeSlice {
		spec.QuotaCycles = tenQuota
	}
	return sim{tenancy: spec, label: label, cfg: config.Default()}
}

// tenantIPC pulls tenant i's IPC out of a multi-tenant result. Zero
// (a soft-failed cell) propagates as zero.
func tenantIPC(g *stats.GPU, i int) float64 {
	if i >= len(g.Tenants) {
		return 0
	}
	return g.Tenants[i].IPC()
}

// tenantShare declares tenant i's IPC within a multi-tenant run.
func tenantShare(run sim, i int) cell {
	return cell{[]sim{run}, func(g []*stats.GPU) float64 { return tenantIPC(g[0], i) }}
}

// perTenant declares one row per (tenant, mix), named tenant|partner.
func perTenant(cells func(pair [2]string, i int) []cell) []row {
	var rows []row
	for _, pair := range tenPairs {
		for i, name := range pair {
			rows = append(rows, row{fmt.Sprintf("%s|%s", name, pair[1-i]), cells(pair, i)})
		}
	}
	return rows
}

// tenInterference measures what co-residency costs each tenant: solo
// IPC on the whole GPU versus IPC co-scheduled with its partner. One
// row per (tenant, mix); the slowdown column is solo/coresident.
func tenInterference() experiment {
	return experiment{
		id:      "ten-interference",
		title:   "Tenant interference: solo IPC vs co-scheduled IPC",
		columns: []string{"Solo-IPC", "CoSched-IPC", "Slowdown"},
		notes:   "Slowdown = Solo-IPC / CoSched-IPC; both tenants resident under FirstFit packing, no caps beyond the admission grant.",
		rows: perTenant(func(pair [2]string, i int) []cell {
			// The interference baseline: the tenant alone on the
			// default configuration.
			solo := sim{workload: pair[i], label: "solo", cfg: config.Default()}
			co := pairRun("cosched", pair, tenancy.CoSched, tenancy.FirstFit)
			return []cell{
				ipc(solo),
				tenantShare(co, i),
				{[]sim{solo, co}, func(g []*stats.GPU) float64 {
					if coIPC := tenantIPC(g[1], i); coIPC > 0 {
						return g[0].IPC() / coIPC
					}
					return 0
				}},
			}
		}),
	}
}

// tenIsolation compares the three tenancy policies on per-tenant IPC:
// spatial partitioning (hard isolation, fewer SMs each), co-scheduling
// (full machine, shared SMs), and time slicing (full machine, cold
// caches each quantum). One row per (tenant, mix).
func tenIsolation() experiment {
	return experiment{
		id:      "ten-isolation",
		title:   "Isolation vs throughput: per-tenant IPC under each tenancy policy",
		columns: []string{"Spatial", "CoSched", "TimeSlice"},
		notes:   fmt.Sprintf("TimeSlice quantum %d cycles; spatial partitions split the SMs evenly.", tenQuota),
		rows: perTenant(func(pair [2]string, i int) []cell {
			policies := []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice}
			return cellsFor(policies, func(pol tenancy.Policy) cell {
				return tenantShare(pairRun(pol.String(), pair, pol, tenancy.FirstFit), i)
			})
		}),
	}
}

// tenPacking compares the bin-packing admission strategies under
// co-scheduling: aggregate IPC per mix for FirstFit, BestFit, and
// WorstFit placements.
func tenPacking() experiment {
	e := experiment{
		id:      "ten-packing",
		title:   "Packing strategy comparison: aggregate co-scheduled IPC",
		columns: []string{"FirstFit", "BestFit", "WorstFit"},
		notes:   "Aggregate IPC = total warp instructions from both tenants over the makespan.",
	}
	strategies := []tenancy.Packing{tenancy.FirstFit, tenancy.BestFit, tenancy.WorstFit}
	for _, pair := range tenPairs {
		e.rows = append(e.rows, row{pair[0] + "+" + pair[1], cellsFor(strategies, func(st tenancy.Packing) cell {
			return ipc(pairRun("pack-"+st.String(), pair, tenancy.CoSched, st))
		})})
	}
	return e
}
