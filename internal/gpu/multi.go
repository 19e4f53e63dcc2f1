package gpu

import (
	"context"
	"fmt"

	"gpushare/internal/core"
	"gpushare/internal/invariant"
	"gpushare/internal/kernel"
	"gpushare/internal/opt/unroll"
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

// RunMultiCtx is the multi-tenant Run loop. launches[i] is tenant i's
// kernel; the spec decides how the tenants share the GPU:
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
		if err := l.Validate(); err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, -1, fmt.Errorf("tenant %d: %w", i, err))
		}
		cp := *l
		if s.Cfg.UnrollRegs {
			cp.Kernel = unroll.Apply(l.Kernel)
		}
		run[i] = &cp
	}
	if spec.Policy == tenancy.TimeSlice {
		return s.runTimeSlice(ctx, spec, run)
	}
	return s.runPlaced(ctx, spec, run)
}

// runPlaced executes the spatial and co-scheduled policies: one
// admission decision up front, then a single cycle loop over SMs that
// host a fixed tenant mix for the whole run.
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

	stride := s.Cfg.InvariantStride
	if stride <= 0 {
		stride = envInvariantStride()
	}
	chk := invariant.New(stride, invariant.ClassAll, sms, s.ms)

	n := len(launches)
	next := make([]int, n)      // next CTA to dispatch, per tenant
	total := make([]int, n)     // grid size, per tenant
	completed := make([]int, n) // blocks drained, per tenant
	done := make([]int64, n)    // cycle the tenant's last block drained
	totalAll := 0
	for i, l := range launches {
		total[i] = l.Blocks()
		totalAll += total[i]
	}

	var pending launchQueue
	lastProgress := int64(0)
	doneAll := 0
	startAt := int64(0)
	resumedAt := int64(-1)
	sink := s.CheckpointSink
	ckStride := s.Cfg.CheckpointStride
	if ckStride <= 0 || sink == nil {
		ckStride, sink = 0, nil
	}
	kernels := make([]string, n)
	for i, l := range launches {
		kernels[i] = l.Kernel.Name
	}

	if s.RestoreFrom != nil {
		p, err := s.decodePayload(s.RestoreFrom, modePlaced, kernels, spec)
		if err != nil {
			return nil, err
		}
		if err := s.restoreMachine(p, sms); err != nil {
			return nil, err
		}
		st := p.Placed
		if len(st.Next) != n || len(st.Completed) != n || len(st.Done) != n {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint dispatch ledgers cover %d/%d/%d tenants, run has %d",
				len(st.Next), len(st.Completed), len(st.Done), n)
		}
		copy(next, st.Next)
		copy(completed, st.Completed)
		copy(done, st.Done)
		doneAll = st.DoneAll
		if pending, err = loadQueue(st.Pending, len(sms)); err != nil {
			return nil, err
		}
		lastProgress = st.LastProgress
		startAt = p.Cycle
		resumedAt = p.Cycle
	} else {
		// Initial fill: round-robin one local slot depth at a time across
		// SMs and tenants, the multi-tenant analog of RunCtx's slot-major
		// breadth-first dispatch.
		for r := 0; ; r++ {
			any := false
			for _, sm := range sms {
				for li := 0; li < sm.Tenants(); li++ {
					base, cnt := sm.TenantSlots(li)
					if r >= cnt {
						continue
					}
					ti := sm.TenantID(li)
					if next[ti] >= total[ti] {
						continue
					}
					if err := sm.LaunchBlock(base+r, next[ti]); err != nil {
						return nil, simerr.Wrap(simerr.KindInvariant, -1, err)
					}
					next[ti]++
					any = true
				}
			}
			if !any {
				break
			}
		}
	}

	maxCycles := s.Cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	window := s.Cfg.ProgressWindow
	if window <= 0 {
		window = progressWindow
	}

	s.armMemSleep()

	var now int64
	for now = startAt; ; now++ {
		if sink != nil && now > 0 && now%ckStride == 0 && now != resumedAt {
			p, err := s.newPayload(modePlaced, kernels, spec, now, sms)
			if err != nil {
				return nil, err
			}
			p.Placed = &placedState{
				Next:         append([]int(nil), next...),
				Completed:    append([]int(nil), completed...),
				Done:         append([]int64(nil), done...),
				DoneAll:      doneAll,
				Pending:      saveQueue(&pending),
				LastProgress: lastProgress,
			}
			blob, err := encodePayload(p)
			if err != nil {
				return nil, err
			}
			if err := sink.Put(now, blob); err != nil {
				return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
			}
		}
		if now >= maxCycles {
			return nil, s.hangError(simerr.KindMaxCycles, now, sms,
				fmt.Sprintf("multi-tenant run (%s) exceeded %d cycles", spec.Policy, maxCycles))
		}
		if now&(cancelStride-1) == 0 && ctx.Err() != nil {
			return nil, simerr.Wrap(simerr.KindCanceled, now, ctx.Err())
		}
		anyIssued, err := tickSMs(sms, now)
		if err != nil {
			if se, ok := simerr.As(err); ok && se.Dump == nil {
				se.Dump = invariant.BuildDump(now, sms, s.ms)
			}
			return nil, err
		}
		s.ms.Tick(now)

		if err := chk.Check(now); err != nil {
			return nil, err
		}

		// Refill freed slots with the owning tenant's next CTA.
		for pending.len() > 0 && pending.front().at <= now {
			p := pending.pop()
			ti := sms[p.sm].TenantOfSlot(p.slot)
			if next[ti] < total[ti] {
				if err := sms[p.sm].LaunchBlock(p.slot, next[ti]); err != nil {
					se := simerr.Wrap(simerr.KindInvariant, now, err)
					se.SM = sms[p.sm].ID
					se.Dump = invariant.BuildDump(now, sms, s.ms)
					return nil, se
				}
				next[ti]++
			}
		}
		for si, sm := range sms {
			for _, slot := range sm.FinishedSlots() {
				ti := sm.TenantOfSlot(slot)
				completed[ti]++
				doneAll++
				if completed[ti] == total[ti] {
					done[ti] = now
				}
				pending.push(pendingLaunch{
					sm: si, slot: slot, at: now + int64(s.Cfg.CTALaunchLat),
				})
			}
		}

		if doneAll >= totalAll {
			break
		}

		if anyIssued {
			lastProgress = now
		} else if now-lastProgress > window {
			return nil, s.hangError(simerr.KindWatchdog, now, sms,
				fmt.Sprintf("multi-tenant run (%s): no instruction issued for %d cycles (deadlock?)",
					spec.Policy, window))
		}
	}

	g := &stats.GPU{Cycles: now + 1}
	for si := range pl.SMs {
		slots := 0
		for _, ta := range pl.SMs[si].Tenants {
			slots += ta.Occ.Max
		}
		if slots > g.ResidentTB {
			g.ResidentTB = slots
		}
	}
	for _, sm := range sms {
		sm.FinalizeStats()
		g.SMs = append(g.SMs, sm.Stats)
		g.L1.Add(sm.L1Stats())
	}
	g.Tenants = collectTenants(spec, sms, done)
	s.ms.CollectStats(g)
	return g, nil
}

// runTimeSlice executes the time-slicing policy: tenants own the whole
// GPU in round-robin order for QuotaCycles-cycle slices on one global
// clock. At a quota boundary dispatch stops and the resident blocks
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

	stride := s.Cfg.InvariantStride
	if stride <= 0 {
		stride = envInvariantStride()
	}
	maxCycles := s.Cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	window := s.Cfg.ProgressWindow
	if window <= 0 {
		window = progressWindow
	}

	next := make([]int, n)
	total := make([]int, n)
	completed := make([]int, n)
	done := make([]int64, n)
	remaining := n
	for i, l := range launches {
		total[i] = l.Blocks()
	}

	g := &stats.GPU{}
	tenAgg := make([]stats.Tenant, n)
	for i := range tenAgg {
		tenAgg[i].Name = spec.TenantName(i)
		tenAgg[i].Workload = spec.Tenants[i].Workload
	}

	startTi := 0
	resumedAt := int64(-1)
	sink := s.CheckpointSink
	ckStride := s.Cfg.CheckpointStride
	if ckStride <= 0 || sink == nil {
		ckStride, sink = 0, nil
	}
	kernels := make([]string, n)
	for i, l := range launches {
		kernels[i] = l.Kernel.Name
	}

	// rs, when non-nil, is a decoded checkpoint to resume from: the
	// first outer-loop iteration restores tenant rs.Slice.Tenant's
	// in-progress slice (possibly mid-quantum, possibly draining)
	// instead of building and filling a fresh one.
	var rs *payload
	if s.RestoreFrom != nil {
		p, err := s.decodePayload(s.RestoreFrom, modeTimeslice, kernels, spec)
		if err != nil {
			return nil, err
		}
		st := p.Slice
		if len(st.Next) != n || len(st.Completed) != n || len(st.Done) != n || len(st.TenAgg) != n {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint dispatch ledgers cover %d/%d/%d/%d tenants, run has %d",
				len(st.Next), len(st.Completed), len(st.Done), len(st.TenAgg), n)
		}
		if st.Tenant < 0 || st.Tenant >= n {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint slice tenant %d out of range (%d tenants)", st.Tenant, n)
		}
		copy(next, st.Next)
		copy(completed, st.Completed)
		copy(done, st.Done)
		remaining = st.Remaining
		*g = st.Agg
		copy(tenAgg, st.TenAgg)
		startTi = st.Tenant
		rs = p
	}

	// The memory system persists across slices (one arming covers the
	// whole run); each slice's first memory tick derives fresh horizons.
	s.armMemSleep()

	now := int64(0)
	for ti := startTi; remaining > 0; ti = (ti + 1) % n {
		// A resumed slice may already be draining (all CTAs completed,
		// blocks still resident), so the skip applies only to fresh
		// slices.
		if rs == nil && completed[ti] >= total[ti] {
			continue
		}
		l, occ := launches[ti], occs[ti]
		sms, err := s.newSMs(l, occ)
		if err != nil {
			return nil, simerr.Wrap(simerr.KindLaunch, now, err)
		}
		chk := invariant.New(stride, invariant.ClassAll, sms, s.ms)

		var pending launchQueue
		var sliceEnd, lastProgress int64
		if rs != nil {
			if err := s.restoreMachine(rs, sms); err != nil {
				return nil, err
			}
			st := rs.Slice
			var err error
			if pending, err = loadQueue(st.Pending, len(sms)); err != nil {
				return nil, err
			}
			now = rs.Cycle
			sliceEnd = st.SliceEnd
			lastProgress = st.LastProgress
			resumedAt = rs.Cycle
			rs = nil
		} else {
			for slot := 0; slot < occ.Max && next[ti] < total[ti]; slot++ {
				for _, sm := range sms {
					if next[ti] >= total[ti] {
						break
					}
					if err := sm.LaunchBlock(slot, next[ti]); err != nil {
						return nil, simerr.Wrap(simerr.KindInvariant, now, err)
					}
					next[ti]++
				}
			}
			sliceEnd = now + spec.QuotaCycles
			lastProgress = now
		}
		for ; ; now++ {
			if sink != nil && now > 0 && now%ckStride == 0 && now != resumedAt {
				p, err := s.newPayload(modeTimeslice, kernels, spec, now, sms)
				if err != nil {
					return nil, err
				}
				p.Slice = &sliceState{
					Tenant:       ti,
					SliceEnd:     sliceEnd,
					Next:         append([]int(nil), next...),
					Completed:    append([]int(nil), completed...),
					Done:         append([]int64(nil), done...),
					Remaining:    remaining,
					Pending:      saveQueue(&pending),
					LastProgress: lastProgress,
					Agg:          *g,
					TenAgg:       append([]stats.Tenant(nil), tenAgg...),
				}
				blob, err := encodePayload(p)
				if err != nil {
					return nil, err
				}
				if err := sink.Put(now, blob); err != nil {
					return nil, simerr.Wrap(simerr.KindCheckpoint, now, err)
				}
			}
			if now >= maxCycles {
				return nil, s.hangError(simerr.KindMaxCycles, now, sms,
					fmt.Sprintf("timeslice run exceeded %d cycles (tenant %d's slice)", maxCycles, ti))
			}
			if now&(cancelStride-1) == 0 && ctx.Err() != nil {
				return nil, simerr.Wrap(simerr.KindCanceled, now, ctx.Err())
			}
			anyIssued, err := tickSMs(sms, now)
			if err != nil {
				if se, ok := simerr.As(err); ok && se.Dump == nil {
					se.Dump = invariant.BuildDump(now, sms, s.ms)
				}
				return nil, err
			}
			s.ms.Tick(now)
			if err := chk.Check(now); err != nil {
				return nil, err
			}

			// Refill only inside the quota; past the boundary the slice
			// is draining and freed slots stay empty (their CTAs go to
			// this tenant's next slice).
			for pending.len() > 0 && pending.front().at <= now {
				p := pending.pop()
				if now < sliceEnd && next[ti] < total[ti] {
					if err := sms[p.sm].LaunchBlock(p.slot, next[ti]); err != nil {
						se := simerr.Wrap(simerr.KindInvariant, now, err)
						se.SM = p.sm
						se.Dump = invariant.BuildDump(now, sms, s.ms)
						return nil, se
					}
					next[ti]++
				}
			}
			for si, sm := range sms {
				for _, slot := range sm.FinishedSlots() {
					completed[ti]++
					if completed[ti] == total[ti] {
						done[ti] = now
					}
					pending.push(pendingLaunch{
						sm: si, slot: slot, at: now + int64(s.Cfg.CTALaunchLat),
					})
				}
			}

			if completed[ti] >= total[ti] || now >= sliceEnd {
				idle := true
				for _, sm := range sms {
					if !sm.Idle() {
						idle = false
						break
					}
				}
				if idle {
					break
				}
			}

			if anyIssued {
				lastProgress = now
			} else if now-lastProgress > window {
				return nil, s.hangError(simerr.KindWatchdog, now, sms,
					fmt.Sprintf("timeslice run: no instruction issued for %d cycles in tenant %d's slice (deadlock?)",
						window, ti))
			}
		}
		slice := &stats.GPU{ResidentTB: occ.Max}
		var st stats.Tenant
		peak, slots := 0, 0
		for _, sm := range sms {
			sm.FinalizeStats()
			slice.SMs = append(slice.SMs, sm.Stats)
			slice.L1.Add(sm.L1Stats())
			ts := sm.TenantStats(0)
			st.AddCounters(&ts)
			peak += ts.MaxResidentTB
			slots += ts.ResidentSlots
		}
		g.Merge(slice)
		agg := &tenAgg[ti]
		agg.AddCounters(&st)
		if peak > agg.MaxResidentTB {
			agg.MaxResidentTB = peak
		}
		agg.ResidentSlots = slots
		agg.SMs = len(sms)
		if completed[ti] >= total[ti] {
			remaining--
		}
		now++ // the next slice starts on the cycle after this one's last
	}

	g.Cycles = now
	for i := range tenAgg {
		tenAgg[i].Cycles = done[i] + 1
	}
	g.Tenants = tenAgg
	s.ms.CollectStats(g)
	return g, nil
}

// collectTenants assembles the per-tenant breakdown for a placed run:
// each tenant's counters summed over its hosting SMs, with its makespan
// as its own Cycles.
func collectTenants(spec *tenancy.Spec, sms []*smcore.SM, done []int64) []stats.Tenant {
	out := make([]stats.Tenant, len(spec.Tenants))
	for i := range out {
		t := &out[i]
		t.Name = spec.TenantName(i)
		t.Workload = spec.Tenants[i].Workload
		t.Cycles = done[i] + 1
		for _, sm := range sms {
			for li := 0; li < sm.Tenants(); li++ {
				if sm.TenantID(li) != i {
					continue
				}
				ts := sm.TenantStats(li)
				t.AddCounters(&ts)
				t.MaxResidentTB += ts.MaxResidentTB
				t.ResidentSlots += ts.ResidentSlots
				t.SMs++
			}
		}
	}
	return out
}
