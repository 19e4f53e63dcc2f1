package gpu

import (
	"fmt"
	"os"

	"gpushare/internal/fault"
	"gpushare/internal/mem"
	"gpushare/internal/smcore"
)

// envNoSMSleep reads GPUSHARE_NOSMSLEEP: any value other than empty or
// "0" disables the per-SM sleep/wake fast-forward, exactly like
// Config.NoSMSleep. Read per engine construction, not once, so tests
// can flip it with t.Setenv.
func envNoSMSleep() bool {
	v := os.Getenv("GPUSHARE_NOSMSLEEP")
	return v != "" && v != "0"
}

// envNoMemSleep reads GPUSHARE_NOMEMSLEEP: any value other than empty
// or "0" disables the event-driven memory tick, exactly like
// Config.NoMemSleep. Read per run, not once, so tests can flip it with
// t.Setenv.
func envNoMemSleep() bool {
	v := os.Getenv("GPUSHARE_NOMEMSLEEP")
	return v != "" && v != "0"
}

// missedWakeSlack is how far a MissedWake fault pushes a sleeping SM's
// wake cycle past its true horizon: long enough that the skipped range
// provably contains live work (a writeback deadline), short enough
// that the next invariant audit catches it quickly.
const missedWakeSlack = 64

// engineOpts configures the cycle engine's per-SM sleep machinery. The
// zero value disables sleep (the pre-sleep engine, used as the
// reference path by the determinism tests).
type engineOpts struct {
	sleep  bool
	ms     *mem.System // reply-arrival horizon + wake observer
	faults *fault.Plan // MissedWake injection point (nil in normal runs)
	// trace, when non-nil, observes every sleep entry (test hook).
	trace func(smID int, now, wakeAt int64)
}

// Per-SM sleep states. An SM is armed on a quiet cycle (counters
// snapshotted), modelled on the next cycle (per-cycle delta measured,
// wake cycle computed), and asleep after that: skipped by tick until
// its wake cycle or an external event, its counters replayed
// arithmetically from the model delta.
const (
	smAwake uint8 = iota
	smArmed
	smAsleep
)

// smSleep is one SM's sleep-machine state, owned by the engine (the SM
// itself is sleep-oblivious; see smcore/sleep.go).
type smSleep struct {
	state   uint8
	retryAt int64 // awake: no re-arm before this cycle (damping)
	wakeAt  int64 // asleep: first cycle the SM must tick again
	rs      smcore.SleepState
}

// wakeEnt is one min-heap entry: SM (engine index) i must be woken no
// later than cycle at. Entries are never removed early — an SM woken
// ahead of schedule (reply, launch) leaves a stale entry behind, which
// the pop loop discards by re-checking the SM's live state.
type wakeEnt struct {
	at int64
	i  int
}

// cycleEngine advances the SM array one cycle at a time, in ascending
// engine index on the calling goroutine. A simulation is single-
// threaded by design (see DESIGN.md "Why a simulation is single-
// threaded"); parallelism lives across simulations, in runner's farm
// and gsched's workers.
//
// With sleep enabled the per-cycle loop covers only awake SMs (the
// active list, ascending engine index), so sleeping SMs cost nothing;
// transitions and wakes also run in ascending index order, keeping
// every observable interleaving identical to the sleep-off engine.
type cycleEngine struct {
	sms []*smcore.SM
	opt engineOpts

	// issued[i] reports whether SM i issued this cycle (read by the
	// sleep transitions).
	issued []bool

	// active lists the engine indices ticking this cycle, ascending.
	// Without sleep it is all SMs, built once.
	active []int

	// Sleep state (nil without sleep). byID maps sm.ID to engine index
	// (they differ in placed multi-tenant runs, where the engine holds a
	// compacted slice); the memory system addresses SMs by ID.
	st   []smSleep
	heap []wakeEnt
	byID []int
}

// newCycleEngine builds the engine over sms.
func newCycleEngine(sms []*smcore.SM, opt engineOpts) *cycleEngine {
	e := &cycleEngine{sms: sms, opt: opt}
	e.active = make([]int, len(sms))
	for i := range e.active {
		e.active[i] = i
	}
	e.issued = make([]bool, len(sms))
	if opt.sleep {
		e.st = make([]smSleep, len(sms))
		maxID := 0
		for _, sm := range sms {
			if sm.ID > maxID {
				maxID = sm.ID
			}
		}
		e.byID = make([]int, maxID+1)
		for i := range e.byID {
			e.byID[i] = -1
		}
		for i, sm := range sms {
			e.byID[sm.ID] = i
		}
		// Replies pushed toward a sleeping SM after its wake cycle was
		// computed must shorten the sleep.
		opt.ms.SetReplyObserver(e.onReply)
	}
	return e
}

// tick runs one cycle across all awake SMs and reports whether any
// issued an instruction. The first (lowest-index) SM error aborts the
// cycle.
func (e *cycleEngine) tick(now int64) (bool, error) {
	if e.opt.sleep {
		e.processWakes(now)
		e.active = e.active[:0]
		for i := range e.sms {
			if e.st[i].state != smAsleep {
				e.active = append(e.active, i)
			}
		}
	}
	any := false
	for _, si := range e.active {
		issued, err := e.sms[si].Tick(now)
		if err != nil {
			return false, err
		}
		e.issued[si] = issued
		any = any || issued
	}
	if e.opt.sleep {
		e.transitions(now)
	}
	return any, nil
}

// processWakes wakes every SM whose wake cycle has arrived, before the
// cycle's SM ticks. Stale heap entries (the SM was woken early, or its
// wake cycle was shortened by a reply) are discarded.
func (e *cycleEngine) processWakes(now int64) {
	for len(e.heap) > 0 && e.heap[0].at <= now {
		ent := e.heapPop()
		st := &e.st[ent.i]
		if st.state != smAsleep || st.wakeAt > now {
			continue // stale entry
		}
		// Materialize the skipped quiet cycles up to the end of the
		// previous cycle; this cycle is ticked normally.
		e.sms[ent.i].SleepReplayTo(&st.rs, now-1)
		st.state = smAwake
		st.retryAt = 0
	}
}

// transitions runs the per-SM sleep state machine after a cycle, in
// ascending engine-index order.
//
// An awake SM that stayed quiet arms: its counters are snapshotted so
// the next cycle can serve as the sleep's model cycle. An armed SM
// that issued goes back to awake; one that stayed quiet measures the
// model delta and computes its wake cycle — the earliest of its local
// progress horizon (writeback deadlines, LSU/SFU release; see
// smcore.ProgressHorizon for the completeness argument) and the
// earliest reply the memory system could deliver to it. If that is
// further than the next cycle, the SM goes to sleep; replies pushed
// later wake it earlier via the reply observer, and block launches
// wake it via notifyLaunch.
func (e *cycleEngine) transitions(now int64) {
	for _, si := range e.active {
		st := &e.st[si]
		sm := e.sms[si]
		switch st.state {
		case smArmed:
			if e.issued[si] {
				st.state = smAwake
				continue
			}
			sm.SleepModel(&st.rs, now)
			h := sm.ProgressHorizon(now)
			fromLocal := true
			if r := e.opt.ms.NextReplyAt(sm.ID, now); r < h {
				h, fromLocal = r, false
			}
			if h <= now+1 {
				// Too close to pay for itself; don't re-probe before h.
				st.state = smAwake
				st.retryAt = h
				continue
			}
			// A MissedWake fault pushes the wake past the true horizon.
			// Only local-horizon sleeps are eligible: a reply-bounded
			// wake could be rescued by the reply itself, making the
			// fault invisible rather than caught.
			if fromLocal && e.opt.faults != nil &&
				e.opt.faults.Trip(fault.MissedWake, now, sm.ID, -1,
					fmt.Sprintf("sleeping SM%d wake pushed from cycle %d to %d", sm.ID, h, h+missedWakeSlack)) {
				h += missedWakeSlack
			}
			st.state = smAsleep
			st.wakeAt = h
			e.heapPush(wakeEnt{at: h, i: si})
			if e.opt.trace != nil {
				e.opt.trace(sm.ID, now, h)
			}
		case smAwake:
			if !e.issued[si] && now >= st.retryAt {
				sm.SleepArm(&st.rs)
				st.state = smArmed
			}
		}
	}
}

// onReply is the memory system's reply observer: a reply headed for a
// sleeping SM that would arrive before its wake cycle shortens the
// sleep. Armed SMs need no action — their wake cycle is computed after
// this cycle's memory tick, so NextReplyAt already sees this reply.
func (e *cycleEngine) onReply(smID int, readyAt int64) {
	if smID >= len(e.byID) {
		return
	}
	i := e.byID[smID]
	if i < 0 {
		return
	}
	st := &e.st[i]
	if st.state != smAsleep || readyAt >= st.wakeAt {
		return
	}
	st.wakeAt = readyAt
	e.heapPush(wakeEnt{at: readyAt, i: i})
}

// notifyLaunch must be called before LaunchBlock on SM i at cycle now:
// a launch mutates the SM's counters and state, so an armed SM's
// snapshot goes stale (disarm) and a sleeping SM must materialize its
// skipped cycles and wake to run the new block next cycle.
func (e *cycleEngine) notifyLaunch(i int, now int64) {
	if !e.opt.sleep {
		return
	}
	st := &e.st[i]
	switch st.state {
	case smArmed:
		st.state = smAwake
	case smAsleep:
		e.sms[i].SleepReplayTo(&st.rs, now)
		st.state = smAwake
		st.retryAt = 0
	}
}

// materialize replays every sleeping SM's counters up to the end of
// cycle `end` without waking it. Call it before anything that reads SM
// statistics mid-run: checkpoint payloads, trace snapshots, the
// end-of-run finalize, and per-slice stat collection.
func (e *cycleEngine) materialize(end int64) {
	if !e.opt.sleep {
		return
	}
	for i := range e.st {
		if e.st[i].state == smAsleep {
			e.sms[i].SleepReplayTo(&e.st[i].rs, end)
		}
	}
}

// asleep reports whether engine index i is sleeping (false when sleep
// is disabled). The global idle fast-forward excludes sleeping SMs
// from its own stats replay — their skipped cycles are covered by the
// sleep replay instead — and calls globalSkip to keep both exact.
func (e *cycleEngine) asleep(i int) bool {
	return e.opt.sleep && e.st[i].state == smAsleep
}

// globalSkip reconciles the sleep machine with a machine-global idle
// fast-forward jump landing at the end of cycle `end`: armed SMs are
// disarmed (the global replay just advanced their counters, so the arm
// snapshot is stale) and sleeping SMs are materialized to `end` (the
// caller excluded them from the global replay). No SM can be due to
// wake strictly inside the skipped range: the global horizon is a
// lower bound on every sleeping SM's wake cycle.
func (e *cycleEngine) globalSkip(end int64) {
	if !e.opt.sleep {
		return
	}
	for i := range e.st {
		switch e.st[i].state {
		case smArmed:
			e.st[i].state = smAwake
		case smAsleep:
			e.sms[i].SleepReplayTo(&e.st[i].rs, end)
		}
	}
}

// ForEachAsleep reports every sleeping SM (engine index and wake
// cycle) to the invariant auditor's sleep class. The engine index
// matches the auditor's SM-slice index: both sides are built from the
// same slice.
func (e *cycleEngine) ForEachAsleep(f func(i int, wakeAt int64)) {
	if !e.opt.sleep {
		return
	}
	for i := range e.st {
		if e.st[i].state == smAsleep {
			f(i, e.st[i].wakeAt)
		}
	}
}

func (e *cycleEngine) heapPush(ent wakeEnt) {
	e.heap = append(e.heap, ent)
	j := len(e.heap) - 1
	for j > 0 {
		p := (j - 1) / 2
		if e.heap[p].at <= e.heap[j].at {
			break
		}
		e.heap[p], e.heap[j] = e.heap[j], e.heap[p]
		j = p
	}
}

func (e *cycleEngine) heapPop() wakeEnt {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		s := j
		if l < n && e.heap[l].at < e.heap[s].at {
			s = l
		}
		if r < n && e.heap[r].at < e.heap[s].at {
			s = r
		}
		if s == j {
			break
		}
		e.heap[s], e.heap[j] = e.heap[j], e.heap[s]
		j = s
	}
	return top
}

// detach removes the engine's reply observer from the memory system
// (time-sliced runs build one engine per slice against the persistent
// memory system). A run that aborts with an error may skip it: nothing
// ticks that memory system again.
func (e *cycleEngine) detach() {
	if e.opt.sleep {
		e.opt.ms.SetReplyObserver(nil)
	}
}
