package smcore

import (
	"fmt"
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// TestAuditCatchesStalePatchedState: the cached next PC is rewritten in
// place after every issue, and a census class is kept across cycles,
// derived state nothing else would notice going stale, so the snapshot
// auditor has to. A one-warp load-use kernel under the two-level policy
// is ticked until the load has issued (no refresh involved: an issue
// queues only a warp that finished or parked) and its scheduler's
// census holds the warp waiting on it; each hand-made corruption
// must then be named by the audit, and the clean state must pass again;
// so must a writeback planted a wheel span ahead, past the wheel's
// contract, for the scoreboard audit. The two-level policy's
// waiting-on-load input is read live (waitingLong), not cached: it must
// say waiting while the line is out and stop once it lands.
func TestAuditCatchesStalePatchedState(t *testing.T) {
	b := kernel.NewBuilder("lduse", 32)
	b.Params(1).SetRegs(8)
	b.LdParam(0, 0)
	b.LdG(2, isa.Reg(0), 0)
	b.IAdd(2, isa.Reg(2), isa.Imm(1))
	b.Exit()
	cfg := config.Default()
	cfg.Sched = config.SchedTwoLevel
	sm, ms, _ := buildSM(t, cfg, b.MustBuild(), 1, 0)
	ms.Global.Alloc(128)
	mustLaunch(t, sm, 0, 0)

	const ws = 0
	wc := &sm.warps[ws]
	var now int64
	tickUntil := func(what string, done func() bool) {
		t.Helper()
		for limit := now + 10000; !done(); now++ {
			if now > limit {
				t.Fatalf("never reached: %s", what)
			}
			if _, err := sm.Tick(now); err != nil {
				t.Fatal(err)
			}
			ms.Tick(now)
			if err := sm.AuditSnapshots(now); err != nil {
				t.Fatalf("cycle %d, clean run: %v", now, err)
			}
		}
	}
	tickUntil("the load's issue", func() bool { return wc.loadRegs != 0 })
	if sm.dirty[ws] || wc.pc != 2 || !sm.waitingLong(ws) {
		t.Fatalf("setup: want warp %d unqueued at pc 2 and waiting on the load, got dirty=%v pc=%d waiting=%v",
			ws, sm.dirty[ws], wc.pc, sm.waitingLong(ws))
	}

	// The load's issue reclassed the warp: its census holds it
	// scoreboard-blocked on the load's destination.
	cen := &sm.census[sm.slotSched[ws]]
	at := uint64(1) << sm.slotPos[ws]
	if cen.of != [numClasses]uint64{classScoreboard: at} || cen.lock != 0 {
		t.Fatalf("setup: census %+v, want only the warp's bit %#x, scoreboard-blocked", *cen, at)
	}
	n := sm.rankLen(0)

	for _, c := range []struct {
		name    string
		corrupt func() (repair func())
		want    string
	}{
		{"cached PC one behind", func() func() {
			wc.pc--
			return func() { wc.pc++ }
		}, "SM0 warp 0: cached next PC 1, SIMT stack says 2 (missed PC sync)"},
		{"cached PC says finished", func() func() {
			pc := wc.pc
			wc.pc = -1
			return func() { wc.pc = pc }
		}, "SM0 warp 0: cached next PC -1, SIMT stack says 2 (missed PC sync)"},
		{"census class moved to another class", func() func() {
			cen.of[classScoreboard] &^= at
			cen.of[classClear+kindSP] |= at
			return func() { cen.of[classScoreboard], cen.of[classClear+kindSP] = at, 0 }
		}, "SM0 scheduler 0 warp 0: census class sp (the warp records scoreboard), a recount of the warp's state says scoreboard (missed reclass)"},
		{"census class dropped", func() func() {
			cen.of[classScoreboard] = 0
			return func() { cen.of[classScoreboard] = at }
		}, "SM0 scheduler 0 warp 0: census class none (the warp records scoreboard), a recount of the warp's state says scoreboard (missed reclass)"},
		{"warp's recorded class moved", func() func() {
			wc.cls = classClear + kindGmem
			return func() { wc.cls = classScoreboard }
		}, "SM0 scheduler 0 warp 0: census class scoreboard (the warp records gmem), a recount of the warp's state says scoreboard (missed reclass)"},
		{"census lock wait on a scoreboard-blocked warp", func() func() {
			cen.lock = at
			return func() { cen.lock = 0 }
		}, fmt.Sprintf("SM0 scheduler 0: census lock waits %#x on warps that are not scoreboard-clear", at)},
		{"census bit past the ranking", func() func() {
			cen.of[classClear+kindGmem] = 1 << n
			return func() { cen.of[classClear+kindGmem] = 0 }
		}, fmt.Sprintf("SM0 scheduler 0: census bits %#x lie past its %d rank indices", uint64(1)<<n, n)},
	} {
		repair := c.corrupt()
		if err := sm.AuditSnapshots(now); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: audit said %v, want an error containing %q", c.name, err, c.want)
		}
		repair()
		if err := sm.AuditSnapshots(now); err != nil {
			t.Fatalf("%s: audit still objects after the repair: %v", c.name, err)
		}
	}

	// A queued warp's view may be stale, its cached PC may not.
	sm.markDirty(ws)
	wc.pc++
	if err := sm.AuditSnapshots(now); err == nil || !strings.Contains(err.Error(), "missed PC sync") {
		t.Errorf("queued warp with a stale cached PC: audit said %v", err)
	}
	wc.pc--

	// A writeback a wheel span ahead of the last cycle ticked lies
	// outside the wheel's contract: the scoreboard audit must name it.
	last := now - 1
	if err := sm.AuditScoreboard(last); err != nil {
		t.Fatalf("clean scoreboard: %v", err)
	}
	far := last + wbWheelSize
	sm.wb.schedule(far, wbEvent{warpSlot: ws, gen: wc.gen})
	want := fmt.Sprintf("SM0: writeback event scheduled for cycle %d, %d or more cycles ahead of now %d", far, wbWheelSize, last)
	if err := sm.AuditScoreboard(last); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("far writeback deadline: audit said %v, want an error containing %q", err, want)
	}
	if _, ok := takeWB(&sm.wb, far); !ok {
		t.Fatal("the planted writeback is not in its slot")
	}
	if err := sm.AuditScoreboard(last); err != nil {
		t.Fatalf("far writeback deadline: audit still objects after the repair: %v", err)
	}

	tickUntil("the load's completion", func() bool { return wc.loadRegs == 0 })
	if sm.waitingLong(ws) {
		t.Error("warp still reads as waiting on a load after the line landed")
	}
}
