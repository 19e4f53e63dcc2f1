package smcore

import (
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// TestClassReasonPrecedence pins the one table both the card hit path
// and the census replay evaluate: scoreboard, then execution unit / LSU,
// then the MSHR file, then the register lock — tryIssue's order, so a
// warp blocked for two reasons is charged to the same counter it always
// was.
func TestClassReasonPrecedence(t *testing.T) {
	cfg := config.Default()
	sm, _, _ := buildSM(t, cfg, depChainKernel(1), 1)
	const now = 100
	cls := func(kind uint8, lockWait bool) uint8 {
		c := classClear + kind<<1
		if lockWait {
			c |= classLockWait
		}
		return c
	}
	for _, c := range []struct {
		name             string
		cls              uint8
		memUsed, sfuUsed bool
		lsuBusy          int64
		mshrFull         bool
		want             uint8
	}{
		{"scoreboard wins over everything", classScoreboard, true, true, now + 5, true, reasonScoreboard},
		{"lock-waiting SFU warp counts unit when the SFU is taken", cls(kindSFU, true), false, true, 0, false, reasonUnit},
		{"lock-waiting SFU warp counts the lock when the SFU is free", cls(kindSFU, true), true, false, 0, true, reasonLockWait},
		{"SFU warp with a free SFU is not blocked", cls(kindSFU, false), true, false, now + 5, true, reasonNone},
		{"gmem warp counts unit, not mem-pipe, while the LSU is busy", cls(kindGmem, false), false, false, now + 1, true, reasonUnit},
		{"gmem warp counts unit, not mem-pipe, when the LSU issued this cycle", cls(kindGmem, false), true, false, 0, true, reasonUnit},
		{"gmem warp counts mem-pipe once the LSU is free", cls(kindGmem, false), false, false, now, true, reasonMemPipe},
		{"MSHR exhaustion wins over the lock", cls(kindGmem, true), false, false, 0, true, reasonMemPipe},
		{"lock-waiting gmem warp with LSU and MSHRs free counts the lock", cls(kindGmem, true), false, true, 0, false, reasonLockWait},
		{"scratchpad access needs no MSHR", cls(kindMem, false), false, false, 0, true, reasonNone},
		{"scratchpad access waits for the LSU", cls(kindMem, true), false, false, now + 3, false, reasonUnit},
		{"SP warp only ever waits on the lock", cls(kindSP, true), true, true, now + 5, true, reasonLockWait},
		{"SP warp without a lock wait is not blocked", cls(kindSP, false), true, true, now + 5, true, reasonNone},
	} {
		sm.lsuBusy = c.lsuBusy
		sm.mshr = mem.NewLineTable[*loadGroup]()
		if c.mshrFull {
			for line := 0; line < cfg.L1MSHRs; line++ {
				sm.mshr.Add(uint32(line), nil)
			}
		}
		if got := sm.classReason(c.cls, now, c.memUsed, c.sfuUsed); got != c.want {
			t.Errorf("%s: reason %d, want %d", c.name, got, c.want)
		}
	}

	// The census replay charges whole classes through the same table: two
	// lock-waiting SFU warps and three gmem warps, SFU taken and LSU busy
	// with a full MSHR file, are five BlockUnit and nothing else.
	sm.lsuBusy = now + 1
	cen := &sm.census[0]
	cen.ten[0] = censusTenant{lockGen: sm.tens[0].shr.LockGen()}
	cen.ten[0].n[cls(kindSFU, true)] = 2
	cen.ten[0].n[cls(kindGmem, false)] = 3
	cen.present = 1<<cls(kindSFU, true) | 1<<cls(kindGmem, false)
	before := sm.Stats
	ok, structural := sm.replayCensus(cen, now, false, true)
	if !ok || !structural {
		t.Fatalf("replayCensus = (%v, %v), want a structural replay", ok, structural)
	}
	want := before
	want.BlockUnit += 5
	if sm.Stats != want {
		t.Errorf("replay charged %+v over %+v, want 5 unit only", sm.Stats, before)
	}
	// With the SFU free the two SFU warps fall through to a lock wait that
	// is still current; once the lock generation moves, the census cannot
	// answer and nothing may be charged.
	before = sm.Stats
	if ok, _ := sm.replayCensus(cen, now, false, false); !ok {
		t.Fatal("replay refused a census whose lock generation is current")
	}
	want = before
	want.BlockLockWait, want.SharedRegWaits, want.BlockUnit = before.BlockLockWait+2, before.SharedRegWaits+2, before.BlockUnit+3
	if sm.Stats != want {
		t.Errorf("replay charged %+v over %+v, want lock 2/2 and unit 3", sm.Stats, before)
	}
	cen.ten[0].lockGen++
	before = sm.Stats
	if ok, _ := sm.replayCensus(cen, now, false, false); ok {
		t.Error("replay trusted a lock wait observed at an older lock generation")
	}
	if sm.Stats != before {
		t.Error("a refused replay charged counters")
	}
}

// cardMixKernel keeps every block reason populated at once on a
// register-sharing SM. At t=0.1 and 36 registers/thread only r0..r2 are
// private, so a non-owner warp reaches the global load (and the dyn
// gate) on private registers, then waits on the Fig. 3 lock at the SFU
// op, whose destination is in the shared pool. Four lines per load keep
// the MSHR file full part of the time; the dependent arithmetic waits
// on the scoreboard.
func cardMixKernel() *kernel.Kernel {
	b := kernel.NewBuilder("cardmix", 256)
	b.Params(1).SetRegs(36)
	b.IMad(0, isa.Sreg(isa.SrCtaid), isa.Sreg(isa.SrNtid), isa.Sreg(isa.SrTid))
	b.Shl(0, isa.Reg(0), isa.Imm(4))
	b.LdParam(1, 0)
	b.IAdd(0, isa.Reg(0), isa.Reg(1))
	b.MovI(2, 0)
	b.Label("loop")
	b.LdG(1, isa.Reg(0), 0)
	b.FSqrt(3, isa.Reg(1))
	b.IAdd(30, isa.Reg(1), isa.Reg(2))
	b.FAdd(3, isa.Reg(3), isa.Reg(30))
	b.IAdd(0, isa.Reg(0), isa.Imm(4))
	b.IAdd(2, isa.Reg(2), isa.Imm(1))
	b.Setp(isa.CmpLT, 0, isa.Reg(2), isa.Imm(6))
	b.BraIf(0, false, "loop", "done")
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

// TestCardsLockstepWithReference ticks a card/census SM and a
// reference-mode SM side by side, each on its own memory system, through a
// register-sharing run with the dyn gate drawing random numbers, blocks
// retiring and relaunching. Every cycle the two must agree on every
// counter and the card audit must hold; at the end the run must have
// actually exercised the census and each cacheable reason.
func TestCardsLockstepWithReference(t *testing.T) {
	k := cardMixKernel()
	build := func(reference bool) (*SM, *mem.System) {
		cfg := config.Default()
		cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
		cfg.Sched = config.SchedOWF
		cfg.DynWarp = true
		cfg.Reference = reference
		ms := mem.NewSystem(&cfg)
		buf := ms.Global.Alloc(1 << 22)
		l := &kernel.Launch{Kernel: k, GridDim: 64, Params: []uint32{buf}}
		occ := core.ComputeOccupancy(&cfg, k)
		if occ.Pairs == 0 {
			t.Fatalf("cardmix kernel is not register-limited: %+v", occ)
		}
		sm, err := New(1, &cfg, l, occ, ms) // SM 1: the dyn gate is live, not pinned to 0
		if err != nil {
			t.Fatal(err)
		}
		sm.SetDynProb(0.5)
		return sm, ms
	}
	a, msA := build(false)
	b, msB := build(true)
	next := 0
	for slot := 0; slot < a.Occupancy().Max; slot++ {
		mustLaunch(t, a, slot, next)
		mustLaunch(t, b, slot, next)
		next++
	}
	replays := 0
	for now := int64(0); now < 400000 && !a.Idle(); now++ {
		for si := range a.census {
			if a.census[si].valid {
				replays++
			}
		}
		ia, err := a.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := b.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		msA.Tick(now)
		msB.Tick(now)
		if ia != ib || a.Stats != b.Stats {
			t.Fatalf("cycle %d: card/census SM diverged from the reference (issued %v vs %v)\ncards:     %+v\nreference: %+v",
				now, ia, ib, a.Stats, b.Stats)
		}
		if err := a.AuditSnapshots(now); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		fa, fb := a.FinishedSlots(), b.FinishedSlots()
		if len(fa) != len(fb) {
			t.Fatalf("cycle %d: finished slots %v vs %v", now, fa, fb)
		}
		for _, slot := range fa {
			if next < 64 {
				mustLaunch(t, a, slot, next)
				mustLaunch(t, b, slot, next)
				next++
			}
		}
	}
	if !a.Idle() || !b.Idle() {
		t.Fatal("run did not drain")
	}
	st := a.Stats
	if st.BlockScoreboard == 0 || st.BlockUnit == 0 || st.BlockMemPipe == 0 || st.BlockLockWait == 0 || st.BlockDynGate == 0 {
		t.Errorf("run missed a block reason: scoreboard %d unit %d mem-pipe %d lock %d dyn-gate %d",
			st.BlockScoreboard, st.BlockUnit, st.BlockMemPipe, st.BlockLockWait, st.BlockDynGate)
	}
	if replays == 0 {
		t.Error("no scheduler cycle ever started from a valid census")
	}
}
