package smcore

import (
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// TestAuditCatchesStalePatchedState: the cached next PC and the
// in-place WaitingLong patch are derived state nothing else would
// notice going stale, so the snapshot auditor has to. A one-warp
// load-use kernel under the two-level policy is ticked until the load's
// issue has patched WaitingLong on (no refresh involved: the warp is
// not queued); each hand-made corruption must then be named by the
// audit, and the clean state must pass again — also once the line has
// landed and the completion has patched the field back off.
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
	view := &sm.schedInfo[sm.slotSched[ws]][sm.slotPos[ws]]
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
	tickUntil("the load's issue patches WaitingLong on", func() bool { return view.WaitingLong })
	if sm.dirty[ws] || wc.pc != 2 {
		t.Fatalf("setup: want warp %d unqueued at pc 2, got dirty=%v pc=%d", ws, sm.dirty[ws], wc.pc)
	}

	for _, c := range []struct {
		name    string
		corrupt func()
		want    string
	}{
		{"cached PC one behind", func() { wc.pc-- }, "SM0 warp 0: cached next PC 1, SIMT stack says 2 (missed PC sync)"},
		{"cached PC says finished", func() { wc.pc = -1 }, "SM0 warp 0: cached next PC -1, SIMT stack says 2 (missed PC sync)"},
		{"patched WaitingLong lost", func() { view.WaitingLong = false }, "missed snapshot invalidation"},
	} {
		pc, waiting := wc.pc, view.WaitingLong
		c.corrupt()
		if err := sm.AuditSnapshots(now); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: audit said %v, want an error containing %q", c.name, err, c.want)
		}
		wc.pc, view.WaitingLong = pc, waiting
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

	tickUntil("the load's completion patches WaitingLong off", func() bool { return !view.WaitingLong })
	if wc.loadRegs != 0 {
		t.Errorf("WaitingLong went off with loads outstanding (loadRegs %#x)", wc.loadRegs)
	}
	view.WaitingLong = true
	if err := sm.AuditSnapshots(now); err == nil {
		t.Error("audit accepted a WaitingLong left on after the load landed")
	}
}
