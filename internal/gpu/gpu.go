// Package gpu assembles the whole GPU: the SM array, the memory system,
// the thread-block dispatcher (including sharing pairs and ownership-
// transfer relaunch), and the dynamic-warp-execution controller. One
// cycle body (run.cycle, in this file) advances everything on a unified
// cycle clock; Run drives it until the grid completes, RunMulti
// (multi.go) until every tenant's grid does.
package gpu

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"gpushare/internal/checkpoint"
	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/invariant"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/mem/icnt"
	"gpushare/internal/opt/unroll"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
)

// Version is the simulator's behavioural revision, the code component
// of cached-result fingerprints (internal/runner). Bump it whenever a
// change can alter simulation statistics — timing model, schedulers,
// ISA semantics, occupancy math, or the workload proxies — so that
// on-disk results from older revisions are invalidated rather than
// trusted.
const Version = "sim-v1"

// progressWindow is the deadlock detector: if no SM issues a single
// instruction for this many consecutive cycles, the run aborts.
const progressWindow = 500_000

// defaultMaxCycles bounds runaway simulations.
const defaultMaxCycles = 200_000_000

// cancelStride is how often RunCtx polls its context, in cycles. It is
// a power of two so the check compiles to a mask, and small enough that
// a canceled run stops within well under a millisecond of wall time.
const cancelStride = 1024

// Sim owns the functional memory and runs kernels on a configured GPU.
// Create it, populate Mem with kernel inputs, Run launches, then read
// results back from Mem.
type Sim struct {
	Cfg config.Config
	Mem *mem.Global

	// Trace, when non-nil and Cfg.TraceInterval > 0, receives one
	// progress snapshot every TraceInterval cycles during Run/RunMulti.
	Trace io.Writer

	// Faults, when non-nil, arms a deterministic fault-injection plan on
	// every SM (invariant-checker tests only): the plan corrupts one
	// internal bookkeeping event mid-run so the test can assert the
	// auditor or watchdog catches it.
	Faults *fault.Plan

	// CheckpointSink, when non-nil and Cfg.CheckpointStride > 0,
	// receives a full machine snapshot every CheckpointStride cycles
	// during Run/RunMulti. Each container lives in a buffer the next
	// capture overwrites, so Put keeps nothing (see checkpoint.Sink).
	// Sinks may panic with *checkpoint.CrashPoint under crash-point
	// fault injection; the runner's recovery treats that like any other
	// mid-run crash.
	CheckpointSink checkpoint.Sink

	// RestoreFrom, when non-nil, is an encoded checkpoint blob: each Run
	// resumes from it instead of cycle 0, after verifying it matches
	// this simulator's revision, configuration, run mode, kernels, and
	// (for multi-tenant runs) tenancy spec. A mismatched or corrupt blob
	// fails the run with a typed KindCheckpoint error before any state
	// that outlives the run (Mem, the memory system) is touched, so the
	// simulator can run the same launch cold instead.
	RestoreFrom []byte

	ms        *mem.System
	envStride int64 // GPUSHARE_INVARIANT_STRIDE at New, for runs with InvariantStride 0

	// ck holds the last checkpoint container this simulator captured;
	// every capture reuses it (see run.capture).
	ck captureBuf
}

// engineEnv reads the engine's two environment variables, unset
// meaning off. GPUSHARE_REFERENCE is a strconv.ParseBool value that puts
// the simulator in reference mode exactly like Config.Reference.
// GPUSHARE_INVARIANT_STRIDE is a non-negative integer that turns
// invariant auditing on for every run whose configuration leaves
// InvariantStride at 0 (tools/check.sh runs the whole tier-1 suite
// audited through it without touching test code). A malformed value is
// an error naming the variable, never a silent "off".
func engineEnv() (reference bool, stride int64, err error) {
	if v := os.Getenv("GPUSHARE_REFERENCE"); v != "" {
		if reference, err = strconv.ParseBool(v); err != nil {
			return false, 0, fmt.Errorf("GPUSHARE_REFERENCE=%q is not a boolean (1, true, 0, false)", v)
		}
	}
	if v := os.Getenv("GPUSHARE_INVARIANT_STRIDE"); v != "" {
		if stride, err = strconv.ParseInt(v, 10, 64); err != nil || stride < 0 {
			return false, 0, fmt.Errorf("GPUSHARE_INVARIANT_STRIDE=%q is not a non-negative integer", v)
		}
	}
	return reference, stride, nil
}

// New builds a simulator for the configuration and the engine
// environment variables (engineEnv) as they are set now; tests that
// need auditing off pin GPUSHARE_INVARIANT_STRIDE to 0 with t.Setenv
// before they build their simulator.
func New(cfg config.Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, simerr.Wrap(simerr.KindConfig, -1, err)
	}
	reference, stride, err := engineEnv()
	if err != nil {
		return nil, simerr.Wrap(simerr.KindConfig, -1, err)
	}
	cfg.Reference = cfg.Reference || reference
	ms := mem.NewSystem(&cfg)
	return &Sim{Cfg: cfg, Mem: ms.Global, ms: ms, envStride: stride}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg config.Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Occupancy reports the per-SM block occupancy the dispatcher would use
// for the kernel under this simulator's configuration.
func (s *Sim) Occupancy(k *kernel.Kernel) core.Occupancy {
	return core.ComputeOccupancy(&s.Cfg, k)
}

// buildSMs is the one SM builder: the SMs a placement populates, tenant
// ti running launches[ti] under its grant. An SM with no tenants is not
// built (it would idle for the whole run); SM IDs keep their real
// indices so memory-system routing is unaffected. Each tenant's kernel
// is lowered once per distinct occupancy and shared, read-only, by every
// SM holding that grant.
func (s *Sim) buildSMs(pl *tenancy.Placement, launches []*kernel.Launch) ([]*smcore.SM, error) {
	type grant struct {
		tenant int
		occ    core.Occupancy
	}
	progs := make(map[grant]*smcore.Program)
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
				ID:     ta.Tenant,
				Launch: launches[ta.Tenant],
				Occ:    ta.Occ,
				Prog:   progs[key],
			}
		}
		sm, err := smcore.NewMulti(si, &s.Cfg, tls, s.ms)
		if err != nil {
			return nil, err
		}
		if s.Faults != nil {
			sm.SetFaults(s.Faults)
		}
		sms = append(sms, sm)
	}
	return sms, nil
}

// lower validates a launch and returns the copy the run executes
// (register-unrolled when the configuration asks for it).
func (s *Sim) lower(l *kernel.Launch) (*kernel.Launch, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	cp := *l
	if s.Cfg.UnrollRegs {
		cp.Kernel = unroll.Apply(l.Kernel)
	}
	return &cp, nil
}

// tickSMs runs one cycle across the SM array, in ascending index on
// the calling goroutine, and reports whether any SM issued an
// instruction. The first (lowest-index) SM error aborts the cycle. A
// simulation is single-threaded by design (see DESIGN.md "Why a
// simulation is single-threaded") and the loop skips nothing (see "Why
// the cycle loop skips nothing"): a blocked SM's tick is O(1) inside
// SM.Tick, which is where that state lives.
func tickSMs(sms []*smcore.SM, now int64) (bool, error) {
	any := false
	for _, sm := range sms {
		issued, err := sm.Tick(now)
		if err != nil {
			return false, err
		}
		any = any || issued
	}
	return any, nil
}

// run is one cycle loop's dispatcher: the breadth-first block dispatcher
// the paper evaluates sharing inside (fill slot-major, refill a freed
// slot after the CTA launch latency), generalised over tenants — a
// single-kernel run is the one-tenant case. RunCtx, runPlaced and
// runTimeSlice differ only in set-up, in when they stop, and in whether
// a freed slot may be refilled; everything a cycle does lives in cycle.
// See DESIGN.md "One cycle loop, three dispatch policies".
type run struct {
	s *Sim

	// What a checkpoint must carry to resume this loop.
	loopState

	// Checkpoint identity (see payload); cfgJSON and specJSON are
	// marshalled once, by identity.
	mode              string
	kernels           []string
	spec              *tenancy.Spec
	cfgJSON, specJSON json.RawMessage

	label    string // names the run in MaxCycles and watchdog aborts
	total    []int  // grid size, per tenant
	totalAll int
	retired  int // blocks drained over all tenants (the sum of Completed)

	sms []*smcore.SM
	chk *invariant.Checker

	sink        checkpoint.Sink // nil unless checkpointing is armed
	ckStride    int64
	resumedAt   int64 // cycle this run was restored at, or -1
	auditStride int64
	maxCycles   int64
	window      int64
}

// runWatcher is a checkpoint sink that is also handed each run it will
// receive snapshots from, so that its Put can read the live machine the
// snapshot was taken of (the differential capture test rebuilds every
// snapshot from it the way the seed engine encoded one).
type runWatcher interface{ watch(*run) }

// newRun builds the dispatcher for launches[i] as tenant i, with empty
// ledgers and no SMs yet (see setSMs).
func (s *Sim) newRun(mode, label string, spec *tenancy.Spec, launches []*kernel.Launch) *run {
	n := len(launches)
	r := &run{s: s, mode: mode, label: label, spec: spec, kernels: make([]string, n), total: make([]int, n), resumedAt: -1}
	r.Next, r.Completed, r.Done = make([]int, n), make([]int, n), make([]int64, n)
	r.Pending = relaunchQueue{icnt.New[relaunch](1, s.Cfg.CTALaunchLat)}
	for i, l := range launches {
		r.kernels[i] = l.Kernel.Name
		r.total[i] = l.Blocks()
		r.totalAll += r.total[i]
	}
	if s.CheckpointSink != nil && s.Cfg.CheckpointStride > 0 {
		r.sink, r.ckStride = s.CheckpointSink, s.Cfg.CheckpointStride
		if w, ok := r.sink.(runWatcher); ok {
			w.watch(r)
		}
	}
	if r.auditStride = s.Cfg.InvariantStride; r.auditStride <= 0 {
		r.auditStride = s.envStride
	}
	if r.maxCycles = s.Cfg.MaxCycles; r.maxCycles <= 0 {
		r.maxCycles = defaultMaxCycles
	}
	if r.window = s.Cfg.ProgressWindow; r.window <= 0 {
		r.window = progressWindow
	}
	s.ms.Faults = s.Faults
	return r
}

// setSMs points the loop at an SM array in its just-built state: a new
// invariant checker over it and an empty relaunch queue (a time-slice
// run calls this once per slice; the ledgers carry over).
func (r *run) setSMs(sms []*smcore.SM) {
	r.sms = sms
	r.chk = invariant.New(r.auditStride, sms, r.s.ms)
	r.Pending.Clear()
}

// start resumes from Sim.RestoreFrom when it is set and otherwise does
// the initial fill; it returns the first cycle to simulate.
func (r *run) start() (int64, error) {
	first := int64(0)
	if blob := r.s.RestoreFrom; blob != nil {
		p, err := r.decode(blob)
		if err != nil {
			return 0, err
		}
		if err := r.restore(p); err != nil {
			return 0, err
		}
		first = p.Cycle
	} else if err := r.fill(-1); err != nil {
		return 0, err
	}
	return first, nil
}

// fill is the initial dispatch: one slot depth at a time across the SMs
// and the tenants each hosts, so blocks spread evenly, as GPGPU-Sim's
// breadth-first CTA dispatcher does (slot-major when every SM hosts one
// tenant). Blocks are numbered linearly (row-major over a 2D grid). at
// is the cycle a failure is reported at.
func (r *run) fill(at int64) error {
	for depth, any := 0, true; any; depth++ {
		any = false
		for _, sm := range r.sms {
			for li := 0; li < sm.Tenants(); li++ {
				base, cnt := sm.TenantSlots(li)
				ti := sm.TenantID(li)
				if depth >= cnt || r.Next[ti] >= r.total[ti] {
					continue
				}
				if err := sm.LaunchBlock(base+depth, r.Next[ti]); err != nil {
					return simerr.Wrap(simerr.KindInvariant, at, err)
				}
				r.Next[ti]++
				any = true
			}
		}
	}
	return nil
}

// cycle simulates cycle now and reports whether any SM issued an
// instruction: checkpoint, limits, SM and memory ticks, audit, then the
// dispatcher — refill the slots whose launch latency has elapsed (only
// while refillOpen) and queue the ones that drained this cycle. It
// allocates nothing on a cycle that takes no checkpoint.
func (r *run) cycle(ctx context.Context, now int64, refillOpen bool) (bool, error) {
	s := r.s
	// Checkpoint at the top of the cycle: the state is exactly the end
	// of cycle now-1, no scratch live. The resumedAt guard keeps a
	// restored run from instantly re-writing the checkpoint it came from.
	if r.sink != nil && now > 0 && now%r.ckStride == 0 && now != r.resumedAt {
		blob, err := r.capture(now)
		if err != nil {
			return false, err
		}
		if err := r.sink.Put(now, blob); err != nil {
			return false, simerr.Wrap(simerr.KindCheckpoint, now, err)
		}
	}
	if now >= r.maxCycles {
		return false, s.hangError(simerr.KindMaxCycles, now, r.sms,
			fmt.Sprintf("%s exceeded %d cycles", r.label, r.maxCycles))
	}
	if now&(cancelStride-1) == 0 && ctx.Err() != nil {
		return false, simerr.Wrap(simerr.KindCanceled, now, ctx.Err())
	}
	issued, err := tickSMs(r.sms, now)
	if err != nil {
		if se, ok := simerr.As(err); ok && se.Dump == nil {
			se.Dump = invariant.BuildDump(now, r.sms, s.ms)
		}
		return false, err
	}
	if err := s.ms.Tick(now); err != nil {
		if se, ok := simerr.As(err); ok {
			se.Cycle, se.Dump = now, invariant.BuildDump(now, r.sms, s.ms)
		}
		return false, err
	}
	if err := r.chk.Check(now); err != nil {
		return false, err
	}

	// Refill freed slots, after the CTA dispatch latency, with the
	// owning tenant's next CTA. With the refill closed (a time slice
	// past its quota) a freed slot stays empty.
	for {
		p, ok := r.Pending.Pop(0, now)
		if !ok {
			break
		}
		sm := r.sms[p.sm]
		ti := sm.TenantOfSlot(p.slot)
		if !refillOpen || r.Next[ti] >= r.total[ti] {
			continue
		}
		if err := sm.LaunchBlock(p.slot, r.Next[ti]); err != nil {
			se := simerr.Wrap(simerr.KindInvariant, now, err)
			se.SM = sm.ID
			se.Dump = invariant.BuildDump(now, r.sms, s.ms)
			return false, se
		}
		r.Next[ti]++
	}
	for si, sm := range r.sms {
		for _, slot := range sm.FinishedSlots() {
			ti := sm.TenantOfSlot(slot)
			r.Completed[ti]++
			r.retired++
			if r.Completed[ti] == r.total[ti] {
				r.Done[ti] = now
			}
			r.Pending.Push(0, relaunch{sm: si, slot: slot}, now)
		}
	}

	if s.Trace != nil && s.Cfg.TraceInterval > 0 && now%s.Cfg.TraceInterval == 0 {
		r.traceSnapshot(now)
	}
	return issued, nil
}

// idle reports whether every SM has drained.
func (r *run) idle() bool {
	for _, sm := range r.sms {
		if !sm.Idle() {
			return false
		}
	}
	return true
}

// watchdog is the deadlock detector, run on every cycle that did not
// complete the loop: forward progress is an SM issuing an instruction.
func (r *run) watchdog(now int64, issued bool) error {
	if issued {
		r.LastProgress = now
	} else if now-r.LastProgress > r.window {
		return r.s.hangError(simerr.KindWatchdog, now, r.sms,
			fmt.Sprintf("%s: no instruction issued for %d cycles (deadlock?)", r.label, r.window))
	}
	return nil
}

// collect finalises every SM's counters into g. ResidentTB is the
// largest per-SM block-slot grant.
func (r *run) collect(g *stats.GPU) {
	for _, sm := range r.sms {
		sm.FinalizeStats()
		g.SMs = append(g.SMs, sm.Stats)
		g.L1.Add(sm.L1Stats())
		base, n := sm.TenantSlots(sm.Tenants() - 1)
		g.ResidentTB = max(g.ResidentTB, base+n)
	}
}

// Run executes one kernel launch to completion and returns the run
// statistics. Run may be called repeatedly: global memory, the L2
// contents and the open DRAM rows persist across launches (call
// FlushCaches for cold-cache runs), and every launch counts its cycles
// from 0 on a memory system the previous launch left drained — stores
// still queued in DRAM when a launch's last block retires complete
// before the next launch starts, on no launch's clock. Every counter in
// the returned statistics, the L2 and DRAM ones included, is this
// launch's alone; nothing is cumulative. A simulator whose run failed
// is not reusable: its memory system was left mid-flight.
//
// A run builds its SMs from the process-wide spare list where it can
// (smcore.NewMulti) and, once it has returned its statistics, recycles
// them onto it for the next run in any simulator (smcore.Recycle); a
// failed or canceled run leaves them to the garbage collector. A spare
// holds nothing of the run it served and is used by one run at a time.
func (s *Sim) Run(l *kernel.Launch) (*stats.GPU, error) {
	return s.RunCtx(context.Background(), l)
}

// newSingle lowers a single-kernel launch and builds its machine and
// dispatcher: the set-up RunCtx and AuditCheckpoint share.
func (s *Sim) newSingle(l *kernel.Launch) (*run, error) {
	launch, err := s.lower(l)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
	}
	pl, err := tenancy.WholeGPU(&s.Cfg, 0, launch.Kernel)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindUnschedulable, -1, err)
	}
	sms, err := s.buildSMs(pl, []*kernel.Launch{launch})
	if err != nil {
		return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
	}
	r := s.newRun(modeSingle, "kernel "+launch.Kernel.Name, nil, []*kernel.Launch{launch})
	r.setSMs(sms)
	r.Dyn = newDynState(len(sms))
	return r, nil
}

// RunCtx is Run with cooperative cancellation: the cycle loop polls ctx
// every cancelStride cycles (the same cadence family as the invariant
// auditor) and a canceled or expired context aborts the run with a
// KindCanceled error instead of simulating on to MaxCycles. The
// simulator state is abandoned, not checkpointed — a canceled run
// produces no statistics.
func (s *Sim) RunCtx(ctx context.Context, l *kernel.Launch) (*stats.GPU, error) {
	r, err := s.newSingle(l)
	if err != nil {
		return nil, err
	}
	now, err := r.start()
	if err != nil {
		return nil, err
	}
	for ; ; now++ {
		issued, err := r.cycle(ctx, now, true)
		if err != nil {
			return nil, err
		}
		r.Dyn.maybeAdjust(&s.Cfg, r.sms, now)
		// Completion: every CTA dispatched, the relaunch queue drained
		// (so Cycles includes the trailing CTALaunchLat) and every SM idle.
		if r.Next[0] >= r.total[0] && r.Pending.Pending() == 0 && r.idle() {
			break
		}
		if err := r.watchdog(now, issued); err != nil {
			return nil, err
		}
	}
	g := &stats.GPU{Cycles: now + 1}
	r.collect(g)
	return r.finish(g, r.sms)
}

// finish completes a run's statistics with the memory side and settles
// the memory system, so that the next launch on this simulator finds it
// drained, on a clock that starts at 0 again, with its counters at zero.
// The run having succeeded, the SMs it built (machines) then go to the
// spare list for the next run to build its machine in (smcore.Recycle);
// a run that fails, is canceled or panics leaves them to the garbage
// collector.
func (r *run) finish(g *stats.GPU, machines ...[]*smcore.SM) (*stats.GPU, error) {
	s := r.s
	s.ms.CollectStats(g)
	if err := s.ms.Settle(g.Cycles); err != nil {
		return nil, err
	}
	r.sms, r.chk = nil, nil
	// Last machine first: the next run builds them in the same order.
	for i := len(machines) - 1; i >= 0; i-- {
		smcore.Recycle(machines[i])
	}
	return g, nil
}

// FlushCaches invalidates the persistent L2 partitions and closes the
// open DRAM rows: the next launch starts as cold as a new simulator's.
func (s *Sim) FlushCaches() { s.ms.FlushCaches() }

// hangError builds the typed error for a watchdog or MaxCycles abort:
// a forensic dump of every SM plus, when one can be identified, the
// first stuck warp and its stall reason appended to the message.
func (s *Sim) hangError(kind simerr.Kind, now int64, sms []*smcore.SM, msg string) *simerr.SimError {
	dump := invariant.BuildDump(now, sms, s.ms)
	se := &simerr.SimError{Kind: kind, Cycle: now, SM: -1, Warp: -1, Msg: msg, Dump: dump}
	if smID, w, ok := dump.StuckWarp(); ok {
		se.SM, se.Warp = smID, w.Slot
		stall := w.Stall
		if stall == "" {
			stall = "no stall recorded"
		}
		se.Msg += fmt.Sprintf("; first stuck warp: SM%d warp %d at pc %d, %s", smID, w.Slot, w.PC, stall)
	}
	return se
}

// traceSnapshot writes one progress line: cycle, dispatched blocks (all
// tenants), and aggregate issue/stall/idle counts.
func (r *run) traceSnapshot(now int64) {
	var instrs, stalls, idles int64
	active, dispatched := 0, 0
	for _, sm := range r.sms {
		instrs += sm.Stats.WarpInstrs
		stalls += sm.Stats.StallCycles
		idles += sm.Stats.IdleCycles
		active += sm.ActiveBlocks()
	}
	for _, n := range r.Next {
		dispatched += n
	}
	fmt.Fprintf(r.s.Trace, "cycle %9d  blocks %5d/%-5d resident %3d  warpinstrs %10d  stall %9d  idle %9d\n",
		now, dispatched, r.totalAll, active, instrs, stalls, idles)
}

// dynState is the dynamic-warp-execution controller of §IV-C, and the
// part of it a checkpoint carries: every DynPeriod cycles each SMi (i>0)
// compares the stall cycles it accumulated in the window against SM0 (on
// which non-owner memory instructions are disabled outright) and steps
// its issue probability down if it stalled more, up if it stalled less.
type dynState struct {
	Last  []int64   `json:"last"`  // per SM, stall+idle cycles at the last window edge
	Probs []float64 `json:"probs"` // per SM, current issue probability
}

func newDynState(nSMs int) *dynState {
	d := &dynState{Last: make([]int64, nSMs), Probs: make([]float64, nSMs)}
	for i := range d.Probs {
		d.Probs[i] = 1
	}
	return d
}

func (d *dynState) maybeAdjust(cfg *config.Config, sms []*smcore.SM, now int64) {
	if !cfg.DynWarp || len(sms) < 2 {
		return
	}
	period := int64(cfg.DynPeriod)
	if period <= 0 || (now+1)%period != 0 {
		return
	}
	window := make([]int64, len(sms))
	for i, sm := range sms {
		// The paper's monitor counts stalls in the broad sense; our
		// split files memory-induced waits under idle, so the window
		// tracks both.
		total := sm.Stats.StallCycles + sm.Stats.IdleCycles
		window[i] = total - d.Last[i]
		d.Last[i] = total
	}
	for i := 1; i < len(sms); i++ {
		switch {
		case window[i] > window[0]:
			d.Probs[i] -= cfg.DynStep
		case window[i] < window[0]:
			d.Probs[i] += cfg.DynStep
		}
		if d.Probs[i] < 0 {
			d.Probs[i] = 0
		}
		if d.Probs[i] > 1 {
			d.Probs[i] = 1
		}
		sms[i].SetDynProb(d.Probs[i])
	}
}
