// Package gpu assembles the whole GPU: the SM array, the memory system,
// the thread-block dispatcher (including sharing pairs and ownership-
// transfer relaunch), and the dynamic-warp-execution controller. Its Run
// loop advances everything on a unified cycle clock until the grid
// completes.
package gpu

import (
	"context"
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
	"gpushare/internal/opt/unroll"
	"gpushare/internal/simerr"
	"gpushare/internal/smcore"
	"gpushare/internal/stats"
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
	// progress snapshot every TraceInterval cycles during Run.
	Trace io.Writer

	// Faults, when non-nil, arms a deterministic fault-injection plan on
	// every SM (invariant-checker tests only): the plan corrupts one
	// internal bookkeeping event mid-run so the test can assert the
	// auditor or watchdog catches it.
	Faults *fault.Plan

	// CheckpointSink, when non-nil and Cfg.CheckpointStride > 0,
	// receives a full machine snapshot every CheckpointStride cycles
	// during Run/RunMulti. Sinks may panic with *checkpoint.CrashPoint
	// under crash-point fault injection; the runner's recovery treats
	// that like any other mid-run crash.
	CheckpointSink checkpoint.Sink

	// RestoreFrom, when non-nil, is an encoded checkpoint blob: each Run
	// resumes from it instead of cycle 0, after verifying it matches
	// this simulator's revision, configuration, run mode, kernels, and
	// (for multi-tenant runs) tenancy spec. A mismatched or corrupt blob
	// fails the run with a typed KindCheckpoint error before any state
	// is touched.
	RestoreFrom []byte

	ms *mem.System
}

// armMemSleep arms (or disarms) the event-driven memory tick for this
// run: on unless the run is in reference mode or a fault plan other
// than MissedMemWake is armed (fault trips count opportunities, so
// skipping partition ticks would change which event is corrupted).
// Called at run start, after any checkpoint restore; the memoized
// horizons are derived fresh by the first memory tick either way.
func (s *Sim) armMemSleep() {
	on := !s.Cfg.Reference && (s.Faults == nil || s.Faults.Kind == fault.MissedMemWake)
	s.ms.SetEventDriven(on, s.Faults)
}

// envReference reads GPUSHARE_REFERENCE: any value other than empty or
// "0" puts every simulator built while it is set in reference mode,
// exactly like Config.Reference.
func envReference() bool {
	v := os.Getenv("GPUSHARE_REFERENCE")
	return v != "" && v != "0"
}

// envInvariantStride reads GPUSHARE_INVARIANT_STRIDE: a positive
// integer turns invariant auditing on for every run whose configuration
// leaves InvariantStride at 0 (used by tools/check.sh to run the whole
// tier-1 suite audited without touching test code). Read per Run, not
// once, so tests that genuinely need auditing off can pin it to 0 with
// t.Setenv.
func envInvariantStride() int64 {
	v := os.Getenv("GPUSHARE_INVARIANT_STRIDE")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// New builds a simulator for the configuration.
func New(cfg config.Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, simerr.Wrap(simerr.KindConfig, -1, err)
	}
	cfg.Reference = cfg.Reference || envReference()
	ms := mem.NewSystem(&cfg)
	return &Sim{Cfg: cfg, Mem: ms.Global, ms: ms}, nil
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

// newSMs builds the machine's SMs for a whole-GPU launch. The kernel is
// lowered once; every SM shares the one read-only program.
func (s *Sim) newSMs(l *kernel.Launch, occ core.Occupancy) ([]*smcore.SM, error) {
	tl := []smcore.TenantLaunch{{Launch: l, Occ: occ, Prog: smcore.NewProgram(&s.Cfg, l.Kernel, occ)}}
	sms := make([]*smcore.SM, s.Cfg.NumSMs)
	for i := range sms {
		sm, err := smcore.NewMulti(i, &s.Cfg, tl, s.ms)
		if err != nil {
			return nil, err
		}
		if s.Faults != nil {
			sm.SetFaults(s.Faults)
		}
		sms[i] = sm
	}
	return sms, nil
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

// Run executes one kernel launch to completion and returns the run
// statistics. Run may be called repeatedly; global memory and the L2
// persist across launches (call FlushCaches for cold-cache runs).
func (s *Sim) Run(l *kernel.Launch) (*stats.GPU, error) {
	return s.RunCtx(context.Background(), l)
}

// RunCtx is Run with cooperative cancellation: the cycle loop polls ctx
// every cancelStride cycles (the same cadence family as the invariant
// auditor) and a canceled or expired context aborts the run with a
// KindCanceled error instead of simulating on to MaxCycles. The
// simulator state is abandoned, not checkpointed — a canceled run
// produces no statistics.
func (s *Sim) RunCtx(ctx context.Context, l *kernel.Launch) (*stats.GPU, error) {
	if err := l.Validate(); err != nil {
		return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
	}
	launch := *l
	if s.Cfg.UnrollRegs {
		k := unroll.Apply(l.Kernel)
		launch.Kernel = k
	}
	occ := core.ComputeOccupancy(&s.Cfg, launch.Kernel)
	if occ.Baseline == 0 {
		return nil, simerr.New(simerr.KindUnschedulable, -1,
			"kernel %s does not fit on an SM (%s)", launch.Kernel.Name, occ.Limiter)
	}

	sms, err := s.newSMs(&launch, occ)
	if err != nil {
		return nil, simerr.Wrap(simerr.KindLaunch, -1, err)
	}

	stride := s.Cfg.InvariantStride
	if stride <= 0 {
		stride = envInvariantStride()
	}
	chk := invariant.New(stride, invariant.ClassAll, sms, s.ms)

	maxCycles := s.Cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	window := s.Cfg.ProgressWindow
	if window <= 0 {
		window = progressWindow
	}

	dyn := newDynController(&s.Cfg, sms)
	var pending launchQueue
	lastProgress := int64(0)
	totalBlocks := launch.Blocks()
	nextCTA := 0
	startAt := int64(0)
	resumedAt := int64(-1)
	sink := s.CheckpointSink
	ckStride := s.Cfg.CheckpointStride
	if ckStride <= 0 || sink == nil {
		ckStride, sink = 0, nil
	}
	kernels := []string{launch.Kernel.Name}

	if s.RestoreFrom != nil {
		p, err := s.decodePayload(s.RestoreFrom, modeSingle, kernels, nil)
		if err != nil {
			return nil, err
		}
		if err := s.restoreMachine(p, sms); err != nil {
			return nil, err
		}
		st := p.Single
		if len(st.DynLast) != len(sms) || len(st.DynProbs) != len(sms) {
			return nil, simerr.New(simerr.KindCheckpoint, p.Cycle,
				"checkpoint dyn-controller state covers %d/%d SMs, run has %d",
				len(st.DynLast), len(st.DynProbs), len(sms))
		}
		copy(dyn.last, st.DynLast)
		copy(dyn.probs, st.DynProbs)
		if pending, err = loadQueue(st.Pending, len(sms)); err != nil {
			return nil, err
		}
		nextCTA = st.NextCTA
		lastProgress = st.LastProgress
		startAt = p.Cycle
		resumedAt = p.Cycle
	} else {
		// Initial fill, slot-major across SMs so blocks spread evenly, as
		// GPGPU-Sim's breadth-first CTA dispatcher does. Blocks are numbered
		// linearly (row-major over the 2D grid).
		for slot := 0; slot < occ.Max && nextCTA < totalBlocks; slot++ {
			for _, sm := range sms {
				if nextCTA >= totalBlocks {
					break
				}
				if err := sm.LaunchBlock(slot, nextCTA); err != nil {
					return nil, simerr.Wrap(simerr.KindInvariant, -1, err)
				}
				nextCTA++
			}
		}
	}

	s.armMemSleep()
	tracing := s.Trace != nil && s.Cfg.TraceInterval > 0

	var now int64
	for now = startAt; ; now++ {
		// Checkpoint at the top of the loop body: the state is exactly
		// the end of cycle now-1, no scratch live. The resumedAt guard
		// keeps a restored run from instantly re-writing the checkpoint
		// it came from.
		if sink != nil && now > 0 && now%ckStride == 0 && now != resumedAt {
			p, err := s.newPayload(modeSingle, kernels, nil, now, sms)
			if err != nil {
				return nil, err
			}
			p.Single = &singleState{
				NextCTA:      nextCTA,
				Pending:      saveQueue(&pending),
				LastProgress: lastProgress,
				DynLast:      append([]int64(nil), dyn.last...),
				DynProbs:     append([]float64(nil), dyn.probs...),
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
				fmt.Sprintf("kernel %s exceeded %d cycles", launch.Kernel.Name, maxCycles))
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

		// Refill completed block slots after the CTA dispatch latency.
		for pending.len() > 0 && pending.front().at <= now {
			p := pending.pop()
			if nextCTA < totalBlocks {
				if err := sms[p.sm].LaunchBlock(p.slot, nextCTA); err != nil {
					se := simerr.Wrap(simerr.KindInvariant, now, err)
					se.SM = p.sm
					se.Dump = invariant.BuildDump(now, sms, s.ms)
					return nil, se
				}
				nextCTA++
			}
		}
		for si, sm := range sms {
			for _, slot := range sm.FinishedSlots() {
				pending.push(pendingLaunch{
					sm: si, slot: slot, at: now + int64(s.Cfg.CTALaunchLat),
				})
			}
		}

		dyn.maybeAdjust(now)

		if tracing && now%s.Cfg.TraceInterval == 0 {
			s.traceSnapshot(now, sms, nextCTA, launch.GridDim)
		}

		// Completion: every CTA dispatched and every SM drained.
		if nextCTA >= totalBlocks && pending.len() == 0 {
			done := true
			for _, sm := range sms {
				if !sm.Idle() {
					done = false
					break
				}
			}
			if done {
				break
			}
		}

		// Deadlock detection: forward progress is an SM issuing an
		// instruction.
		if anyIssued {
			lastProgress = now
		} else if now-lastProgress > window {
			return nil, s.hangError(simerr.KindWatchdog, now, sms,
				fmt.Sprintf("kernel %s: no instruction issued for %d cycles (deadlock?)",
					launch.Kernel.Name, window))
		}
	}

	g := &stats.GPU{Cycles: now + 1, ResidentTB: occ.Max}
	for _, sm := range sms {
		sm.FinalizeStats()
		g.SMs = append(g.SMs, sm.Stats)
		g.L1.Add(sm.L1Stats())
	}
	s.ms.CollectStats(g)
	return g, nil
}

// FlushCaches invalidates the persistent L2 partitions.
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

// traceSnapshot writes one progress line: cycle, dispatched blocks, and
// aggregate issue/stall/idle counts.
func (s *Sim) traceSnapshot(now int64, sms []*smcore.SM, nextCTA, grid int) {
	var instrs, stalls, idles int64
	active := 0
	for _, sm := range sms {
		instrs += sm.Stats.WarpInstrs
		stalls += sm.Stats.StallCycles
		idles += sm.Stats.IdleCycles
		active += sm.ActiveBlocks()
	}
	fmt.Fprintf(s.Trace, "cycle %9d  blocks %5d/%-5d resident %3d  warpinstrs %10d  stall %9d  idle %9d\n",
		now, nextCTA, grid, active, instrs, stalls, idles)
}

// dynController implements §IV-C: every DynPeriod cycles each SMi (i>0)
// compares the stall cycles it accumulated in the window against SM0 (on
// which non-owner memory instructions are disabled outright) and steps
// its issue probability down if it stalled more, up if it stalled less.
type dynController struct {
	cfg   *config.Config
	sms   []*smcore.SM
	last  []int64
	probs []float64
}

func newDynController(cfg *config.Config, sms []*smcore.SM) *dynController {
	d := &dynController{cfg: cfg, sms: sms, last: make([]int64, len(sms)), probs: make([]float64, len(sms))}
	for i := range d.probs {
		d.probs[i] = 1
	}
	return d
}

func (d *dynController) maybeAdjust(now int64) {
	if !d.cfg.DynWarp || len(d.sms) < 2 {
		return
	}
	period := int64(d.cfg.DynPeriod)
	if period <= 0 || (now+1)%period != 0 {
		return
	}
	window := make([]int64, len(d.sms))
	for i, sm := range d.sms {
		// The paper's monitor counts stalls in the broad sense; our
		// split files memory-induced waits under idle, so the window
		// tracks both.
		total := sm.Stats.StallCycles + sm.Stats.IdleCycles
		window[i] = total - d.last[i]
		d.last[i] = total
	}
	for i := 1; i < len(d.sms); i++ {
		switch {
		case window[i] > window[0]:
			d.probs[i] -= d.cfg.DynStep
		case window[i] < window[0]:
			d.probs[i] += d.cfg.DynStep
		}
		if d.probs[i] < 0 {
			d.probs[i] = 0
		}
		if d.probs[i] > 1 {
			d.probs[i] = 1
		}
		d.sms[i].SetDynProb(d.probs[i])
	}
}
