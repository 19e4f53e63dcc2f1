package gpu

import (
	"context"
	"fmt"

	"gpushare/internal/core"
	"gpushare/internal/kernel"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// RunMulti executes several kernels concurrently on one GPU under the
// spec's tenancy policy and returns whole-run statistics with a
// per-tenant breakdown. See RunMultiCtx.
func (s *Sim) RunMulti(spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	return s.RunMultiCtx(context.Background(), spec, launches)
}

// RunMultiCtx is the multi-tenant Run. launches[i] is tenant i's kernel;
// the spec decides how the tenants share the GPU, which changes only
// which tenant's CTA goes into a freed block slot and when the run stops
// — the cycle itself is RunCtx's (run.cycle in gpu.go):
//
//   - Spatial: the admission layer splits the SMs into disjoint
//     contiguous ranges, one per tenant, and all tenants run at once.
//   - CoSched: the admission layer bin-packs blocks from different
//     tenants onto the same SMs under per-tenant register and
//     scratchpad caps.
//   - TimeSlice: tenants own the whole GPU in round-robin slices of
//     QuotaCycles cycles; at each quota boundary dispatch stops and the
//     resident blocks drain — a deterministic context switch.
//
// The run is bit-deterministic for a given (config, spec, launches)
// in either engine mode, like RunCtx. Dynamic warp execution is
// rejected because its SM0-reference design has no per-tenant meaning.
//
// The caller validates the spec's workload names; this layer only
// checks the structural rules it depends on.
func (s *Sim) RunMultiCtx(ctx context.Context, spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	if s.Cfg.DynWarp {
		return nil, simerr.New(simerr.KindConfig, -1,
			"multi-tenant runs do not support dynamic warp execution (DynWarp)")
	}
	if spec == nil {
		return nil, simerr.New(simerr.KindConfig, -1, "multi-tenant run needs a tenancy spec")
	}
	if len(launches) == 0 || len(launches) != len(spec.Tenants) {
		return nil, simerr.New(simerr.KindLaunch, -1,
			"multi-tenant run needs one launch per tenant: %d launches, %d tenants",
			len(launches), len(spec.Tenants))
	}
	if spec.Policy == tenancy.TimeSlice && spec.QuotaCycles <= 0 {
		return nil, simerr.New(simerr.KindConfig, -1, "timeslice policy requires quota_cycles > 0")
	}
	run := make([]*kernel.Launch, len(launches))
	for i, l := range launches {
		var err error
		if run[i], err = s.lower(l); err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, -1, fmt.Errorf("tenant %d: %w", i, err))
		}
	}
	if spec.Policy == tenancy.TimeSlice {
		return s.runTimeSlice(ctx, spec, run)
	}
	return s.runPlaced(ctx, spec, run)
}

// runPlaced executes the spatial and co-scheduled policies: one
// admission decision up front, then the cycle loop over SMs that host a
// fixed tenant mix for the whole run.
func (s *Sim) runPlaced(ctx context.Context, spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	pl, err := tenancy.Pack(&s.Cfg, launches, spec)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindUnschedulable, -1, err)
	}

	// Each tenant's kernel is lowered once per distinct occupancy
	// grant and shared by every SM holding that grant.
	type grant struct {
		tenant int
		occ    core.Occupancy
	}
	progs := make(map[grant]*smcore.Program)

	// Build only the SMs the placement populated; an SM with no tenants
	// would idle for the whole run. SM IDs keep their real indices so
	// memory-system routing is unaffected.
	var sms []*smcore.SM
	for si := range pl.SMs {
		plan := &pl.SMs[si]
		if len(plan.Tenants) == 0 {
			continue
		}
		tls := make([]smcore.TenantLaunch, len(plan.Tenants))
		for j, ta := range plan.Tenants {
			key := grant{ta.Tenant, ta.Occ}
			if progs[key] == nil {
				progs[key] = smcore.NewProgram(&s.Cfg, launches[ta.Tenant].Kernel, ta.Occ)
			}
			tls[j] = smcore.TenantLaunch{
				ID:      ta.Tenant,
				Launch:  launches[ta.Tenant],
				Occ:     ta.Occ,
				CapRegs: ta.Regs,
				CapSmem: ta.Smem,
				Prog:    progs[key],
			}
		}
		sm, err := smcore.NewMulti(si, &s.Cfg, tls, s.ms)
		if err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
		}
		if s.Faults != nil {
			sm.SetFaults(s.Faults)
		}
		sms = append(sms, sm)
	}

	r := s.newRun(modePlaced, fmt.Sprintf("multi-tenant run (%s)", spec.Policy), spec, launches)
	r.setSMs(sms)
	now, err := r.start()
	if err != nil {
		return nil, err
	}
	for ; ; now++ {
		issued, err := r.cycle(ctx, now, true)
		if err != nil {
			return nil, err
		}
		// Completion: the last block retired. Unlike RunCtx this does not
		// wait out the relaunch queue — there is nothing left to launch.
		if r.retired >= r.totalAll {
			break
		}
		if err := r.watchdog(now, issued); err != nil {
			return nil, err
		}
	}

	g := &stats.GPU{Cycles: now + 1}
	r.collect(g)
	g.Tenants = make([]stats.Tenant, len(launches))
	for i := range g.Tenants {
		t := tenantTotals(r.sms, i)
		t.Name, t.Workload = spec.TenantName(i), spec.Tenants[i].Workload
		t.Cycles = r.Done[i] + 1 // the tenant's own makespan
		g.Tenants[i] = t
	}
	return s.finish(g)
}

// sliceState is what a time-slice run carries beyond the ledgers: which
// tenant holds the GPU, where its quota ends, and the statistics banked
// from the slices already completed.
type sliceState struct {
	Tenant int            `json:"tenant"`
	End    int64          `json:"end"`
	Agg    stats.GPU      `json:"agg"`
	TenAgg []stats.Tenant `json:"ten_agg"`
}

// runTimeSlice executes the time-slicing policy: tenants own the whole
// GPU in round-robin order for QuotaCycles-cycle slices on one global
// clock. At a quota boundary the refill closes and the resident blocks
// drain to idle — the deterministic context switch — then the next
// unfinished tenant's SMs are built fresh (cold L1s, as a real context
// switch would) while global memory and the L2 persist.
func (s *Sim) runTimeSlice(ctx context.Context, spec *tenancy.Spec, launches []*kernel.Launch) (*stats.GPU, error) {
	n := len(launches)
	occs := make([]core.Occupancy, n)
	for i, l := range launches {
		occs[i] = core.ComputeOccupancy(&s.Cfg, l.Kernel)
		if occs[i].Baseline == 0 {
			return nil, simerr.New(simerr.KindUnschedulable, -1,
				"tenant %d: kernel %s does not fit on an SM (%s)", i, l.Kernel.Name, occs[i].Limiter)
		}
	}

	r := s.newRun(modeTimeslice, "", spec, launches)
	r.Slice = &sliceState{TenAgg: make([]stats.Tenant, n)}
	for i := range r.Slice.TenAgg {
		r.Slice.TenAgg[i].Name = spec.TenantName(i)
		r.Slice.TenAgg[i].Workload = spec.Tenants[i].Workload
	}

	// rs, when non-nil, is a decoded checkpoint to resume from: the
	// first outer-loop iteration restores its tenant's in-progress slice
	// (possibly mid-quantum, possibly draining) instead of building and
	// filling a fresh one.
	var rs *payload
	first := 0
	if s.RestoreFrom != nil {
		var err error
		if rs, err = r.decode(s.RestoreFrom); err != nil {
			return nil, err
		}
		first = rs.Loop.Slice.Tenant
	}

	// The memory system persists across slices (one arming covers the
	// whole run); each slice's first memory tick derives fresh horizons.
	s.armMemSleep()

	now := int64(0)
	for ti := first; r.retired < r.totalAll; ti = (ti + 1) % n {
		// A resumed slice runs whatever its ledger says (it may be
		// draining), so the skip applies only to fresh slices.
		if rs == nil && r.Completed[ti] >= r.total[ti] {
			continue
		}
		sms, err := s.newSMs(ti, launches[ti], occs[ti])
		if err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, now, err)
		}
		r.setSMs(sms)
		r.label = fmt.Sprintf("timeslice run (tenant %d's slice)", ti)
		if rs != nil {
			if err := r.restore(rs); err != nil {
				return nil, err
			}
			now, rs = rs.Cycle, nil
		} else {
			if err := r.fill(now); err != nil {
				return nil, err
			}
			r.Slice.Tenant, r.Slice.End = ti, now+spec.QuotaCycles
			r.LastProgress = now
		}
		sl := r.Slice
		for ; ; now++ {
			// Refill only inside the quota; past it the slice is draining
			// and freed slots stay empty (their CTAs go to this tenant's
			// next slice).
			issued, err := r.cycle(ctx, now, now < sl.End)
			if err != nil {
				return nil, err
			}
			// The slice ends, drained to idle, once the tenant's grid is
			// done or its quota is up.
			if (r.Completed[ti] >= r.total[ti] || now >= sl.End) && r.idle() {
				break
			}
			if err := r.watchdog(now, issued); err != nil {
				return nil, err
			}
		}
		slice := &stats.GPU{}
		r.collect(slice)
		sl.Agg.Merge(slice)
		st := tenantTotals(r.sms, ti)
		agg := &sl.TenAgg[ti]
		agg.AddCounters(&st)
		agg.MaxResidentTB = max(agg.MaxResidentTB, st.MaxResidentTB)
		agg.ResidentSlots, agg.SMs = st.ResidentSlots, st.SMs
		now++ // the next slice starts on the cycle after this one's last
	}

	g := &r.Slice.Agg
	g.Cycles = now
	for i := range r.Slice.TenAgg {
		r.Slice.TenAgg[i].Cycles = r.Done[i] + 1
	}
	g.Tenants = r.Slice.TenAgg
	return s.finish(g)
}

// tenantTotals sums tenant id's counters over the SMs hosting it, with
// its peak residency, slot grant and SM count.
func tenantTotals(sms []*smcore.SM, id int) stats.Tenant {
	var t stats.Tenant
	for _, sm := range sms {
		for li := 0; li < sm.Tenants(); li++ {
			if sm.TenantID(li) != id {
				continue
			}
			ts := sm.TenantStats(li)
			t.AddCounters(&ts)
			t.MaxResidentTB += ts.MaxResidentTB
			t.ResidentSlots += ts.ResidentSlots
			t.SMs++
		}
	}
	return t
}
