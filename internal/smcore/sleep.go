package smcore

import (
	"fmt"

	"gpushare/internal/stats"
)

// This file is the SM side of the cycle engine's per-SM sleep (see
// internal/gpu/engine.go and DESIGN.md "Event-driven SM core"). A
// sleeping SM's cycles are all identical to one modelled "frozen"
// cycle: the engine snapshots the SM's counters before that cycle
// (SleepArm), measures the per-cycle delta after it (SleepModel), and
// later replays delta x k arithmetically instead of ticking
// (SleepReplayTo). The SM itself stores no sleep state — everything
// lives in the engine-owned SleepState, so checkpoints and restores
// are oblivious to sleep (a restored run simply re-arms and recomputes
// the same wake cycles from the restored wheel and interconnect state).

// SleepState is the engine-owned replay state for one sleeping SM.
type SleepState struct {
	baseSM  stats.SM       // counters at arm time (start of the model cycle)
	baseTen []stats.Tenant // parallel to sm.tens
	dSM     stats.SM       // per-cycle delta measured over the model cycle
	dTen    []stats.Tenant
	model   int64 // stats reflect the end of this cycle
}

// SleepArm snapshots the SM's cumulative counters immediately before
// the model cycle is ticked.
func (sm *SM) SleepArm(s *SleepState) {
	s.baseSM = sm.Stats
	if cap(s.baseTen) < len(sm.tens) {
		s.baseTen = make([]stats.Tenant, len(sm.tens))
		s.dTen = make([]stats.Tenant, len(sm.tens))
	}
	s.baseTen = s.baseTen[:len(sm.tens)]
	s.dTen = s.dTen[:len(sm.tens)]
	for i := range sm.tens {
		s.baseTen[i] = sm.tens[i].st
	}
}

// SleepModel captures the model cycle's counter delta after the cycle
// at `now` was ticked normally. Every skipped cycle while the SM
// sleeps would have produced exactly this delta.
func (sm *SM) SleepModel(s *SleepState, now int64) {
	s.dSM = sm.Stats.Delta(&s.baseSM)
	for i := range sm.tens {
		s.dTen[i] = sm.tens[i].st.Delta(&s.baseTen[i])
	}
	s.model = now
}

// SleepReplayTo advances the SM's counters to the end of cycle `end`
// by replaying the model delta over the skipped cycles. A no-op when
// end <= the last materialized cycle, so callers may invoke it
// defensively (checkpoints, traces, wakes) without double counting.
func (sm *SM) SleepReplayTo(s *SleepState, end int64) {
	k := end - s.model
	if k <= 0 {
		return
	}
	sm.Stats.AddScaled(&s.dSM, k)
	for i := range sm.tens {
		sm.tens[i].st.AddScaled(&s.dTen[i], k)
	}
	s.model = end
}

// AuditSleep verifies, without mutating any state, that a sleeping SM
// really has no issueable warp at cycle `now`: a live unfinished warp
// whose read-only stall probe reports "ready" means the sleep skipped a
// cycle where the SM would have issued — the exact failure mode a
// MissedWake fault injects. Used by the invariant auditor's sleep
// class.
func (sm *SM) AuditSleep(now int64) error {
	for ws := range sm.warps {
		wc := &sm.warps[ws]
		if !wc.live || wc.finished {
			continue
		}
		if r := sm.stallReason(ws, now); r == "ready" {
			return fmt.Errorf("SM%d asleep at cycle %d but warp %d is issueable (sleep skipped live work)",
				sm.ID, now, ws)
		}
	}
	return nil
}

// ProgressHorizon returns the earliest future cycle at which this SM's
// state can change without external input (a memory reply or a block
// launch): the next writeback deadline or the cycle a busy LSU frees
// up. math.MaxInt64 when none is pending.
//
// Completeness argument (this is what makes per-SM sleep exact): every
// other piece of SM state that gates issue — barrier arrival counts,
// scoreboard dependency masks, pair-sharing leases, scheduler ready
// sets, MSHR occupancy — changes only as a consequence of an issue, a
// writeback retiring, a memory reply draining, or a block launch. If no
// warp can issue at cycle `now` and the stall inputs are constant, no
// warp can issue at any cycle before min(horizon, next reply, next
// launch) either, so both the machine-global idle fast-forward and the
// per-SM sleep may skip the intervening cycles exactly.
func (sm *SM) ProgressHorizon(now int64) int64 {
	next := sm.wb.nextAt(now)
	if sm.lsuBusy > now && sm.lsuBusy < next {
		next = sm.lsuBusy
	}
	return next
}
