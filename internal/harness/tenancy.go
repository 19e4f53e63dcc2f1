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
	"gpushare/internal/runner"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

func init() {
	registerExperiment("ten-interference", tenInterference)
	registerExperiment("ten-isolation", tenIsolation)
	registerExperiment("ten-packing", tenPacking)
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

// execTenancy routes one multi-tenant simulation through the runner,
// mirroring exec for single-kernel jobs (same memoization, planning
// pass, and soft-fail behaviour).
func (s *Session) execTenancy(label string, spec *tenancy.Spec, cfg config.Config) (*stats.GPU, error) {
	if s.InvariantStride > 0 {
		cfg.InvariantStride = s.InvariantStride
	}
	job := runner.Job{Config: cfg, Scale: s.Scale, Tenancy: spec}
	if s.record != nil {
		s.record(job)
		return &stats.GPU{}, nil
	}
	res := s.runner().DoCtx(s.context(), job)
	if res.Err != nil {
		if s.SoftFail && !runner.IsCanceled(res.Err) {
			s.noteFailure(job.String(), label, res.Err)
			return &stats.GPU{}, nil
		}
		return nil, fmt.Errorf("%s under %s: %w", job, label, res.Err)
	}
	if s.Progress != nil && res.Tier == runner.Simulated {
		s.Progress(fmt.Sprintf("%-24s %-16s IPC %7.2f  cycles %9d", job, label, res.Stats.IPC(), res.Stats.Cycles))
	}
	return res.Stats, nil
}

// pairSpec builds the two-tenant descriptor for a mix under a policy.
func pairSpec(pair [2]string, policy tenancy.Policy, pack tenancy.Packing) *tenancy.Spec {
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
	return spec
}

// tenantIPC pulls tenant i's IPC out of a multi-tenant result. Zero
// (a soft-failed cell) propagates as zero.
func tenantIPC(g *stats.GPU, i int) float64 {
	if i >= len(g.Tenants) {
		return 0
	}
	return g.Tenants[i].IPC()
}

// tenInterference measures what co-residency costs each tenant: solo
// IPC on the whole GPU versus IPC co-scheduled with its partner. One
// row per (tenant, mix); the slowdown column is solo/coresident.
func tenInterference(s *Session) (*Table, error) {
	tbl := &Table{
		ID:      "ten-interference",
		Title:   "Tenant interference: solo IPC vs co-scheduled IPC",
		Columns: []string{"Solo-IPC", "CoSched-IPC", "Slowdown"},
		Notes:   "Slowdown = Solo-IPC / CoSched-IPC; both tenants resident under FirstFit packing, no caps beyond the admission grant.",
	}
	for _, pair := range tenPairs {
		spec := pairSpec(pair, tenancy.CoSched, tenancy.FirstFit)
		co, err := s.execTenancy("cosched", spec, config.Default())
		if err != nil {
			return nil, err
		}
		for i, name := range pair {
			solo, err := s.execSolo(name)
			if err != nil {
				return nil, err
			}
			coIPC := tenantIPC(co, i)
			slow := 0.0
			if coIPC > 0 {
				slow = solo.IPC() / coIPC
			}
			tbl.Rows = append(tbl.Rows, RowData{
				Name:  fmt.Sprintf("%s|%s", name, pair[1-i]),
				Cells: []float64{solo.IPC(), coIPC, slow},
			})
		}
	}
	return tbl, nil
}

// execSolo runs one workload alone on the default configuration (the
// interference baseline).
func (s *Session) execSolo(name string) (*stats.GPU, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return s.exec(spec, "solo", config.Default())
}

// tenIsolation compares the three tenancy policies on per-tenant IPC:
// spatial partitioning (hard isolation, fewer SMs each), co-scheduling
// (full machine, shared SMs), and time slicing (full machine, cold
// caches each quantum). One row per (tenant, mix).
func tenIsolation(s *Session) (*Table, error) {
	tbl := &Table{
		ID:      "ten-isolation",
		Title:   "Isolation vs throughput: per-tenant IPC under each tenancy policy",
		Columns: []string{"Spatial", "CoSched", "TimeSlice"},
		Notes:   fmt.Sprintf("TimeSlice quantum %d cycles; spatial partitions split the SMs evenly.", tenQuota),
	}
	policies := []tenancy.Policy{tenancy.Spatial, tenancy.CoSched, tenancy.TimeSlice}
	for _, pair := range tenPairs {
		results := make([]*stats.GPU, len(policies))
		for pi, pol := range policies {
			g, err := s.execTenancy(pol.String(), pairSpec(pair, pol, tenancy.FirstFit), config.Default())
			if err != nil {
				return nil, err
			}
			results[pi] = g
		}
		for i, name := range pair {
			cells := make([]float64, len(policies))
			for pi := range policies {
				cells[pi] = tenantIPC(results[pi], i)
			}
			tbl.Rows = append(tbl.Rows, RowData{
				Name:  fmt.Sprintf("%s|%s", name, pair[1-i]),
				Cells: cells,
			})
		}
	}
	return tbl, nil
}

// tenPacking compares the bin-packing admission strategies under
// co-scheduling: aggregate IPC per mix for FirstFit, BestFit, and
// WorstFit placements.
func tenPacking(s *Session) (*Table, error) {
	tbl := &Table{
		ID:      "ten-packing",
		Title:   "Packing strategy comparison: aggregate co-scheduled IPC",
		Columns: []string{"FirstFit", "BestFit", "WorstFit"},
		Notes:   "Aggregate IPC = total warp instructions from both tenants over the makespan.",
	}
	strategies := []tenancy.Packing{tenancy.FirstFit, tenancy.BestFit, tenancy.WorstFit}
	for _, pair := range tenPairs {
		cells := make([]float64, len(strategies))
		for si, st := range strategies {
			g, err := s.execTenancy("pack-"+st.String(), pairSpec(pair, tenancy.CoSched, st), config.Default())
			if err != nil {
				return nil, err
			}
			cells[si] = g.IPC()
		}
		tbl.Rows = append(tbl.Rows, RowData{Name: pair[0] + "+" + pair[1], Cells: cells})
	}
	return tbl, nil
}
