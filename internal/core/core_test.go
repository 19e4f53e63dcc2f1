package core

import (
	"testing"
	"testing/quick"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

func kern(blockDim, regs, smem int) *kernel.Kernel {
	return &kernel.Kernel{
		Name: "k", BlockDim: blockDim, RegsPerThread: regs, SmemPerBlock: smem,
		Instrs: []isa.Instr{{Op: isa.EXIT, GuardPred: isa.NoPred}},
	}
}

func occAt(k *kernel.Kernel, mode config.SharingMode, t float64) Occupancy {
	cfg := config.Default()
	cfg.Sharing = mode
	cfg.T = t
	return ComputeOccupancy(&cfg, k)
}

// TestOccupancyPaperExamples re-derives the worked examples of §I and
// §III-C: hotspot wastes 5120 registers at 3 blocks; with t=0.5 the
// schematic of Fig. 2 launches one extra block per pair.
func TestOccupancyPaperExamples(t *testing.T) {
	hotspot := kern(256, 36, 0)
	occ := occAt(hotspot, config.ShareNone, 1)
	if occ.Baseline != 3 {
		t.Fatalf("hotspot baseline = %d, want 3", occ.Baseline)
	}
	cfg := config.Default()
	if waste := cfg.RegsPerSM - occ.Baseline*hotspot.RegsPerBlock(); waste != 5120 {
		t.Errorf("hotspot register waste = %d, want 5120 (§I)", waste)
	}

	lava := kern(128, 18, 7200)
	if got := occAt(lava, config.ShareNone, 1).Baseline; got != 2 {
		t.Fatalf("lavaMD baseline = %d, want 2", got)
	}
	if got := occAt(lava, config.ShareScratchpad, 0.1); got.Max != 4 || got.Pairs != 2 {
		t.Errorf("lavaMD at 90%% sharing = %+v, want Max=4 Pairs=2", got)
	}
}

// TestOccupancyEquation4Invariants: quick-check structural properties of
// the extended block count.
func TestOccupancyEquation4Invariants(t *testing.T) {
	f := func(regsSeed, dimSeed uint8, tSeed uint16) bool {
		regs := 8 + int(regsSeed)%56           // 8..63
		blockDim := 32 * (1 + int(dimSeed)%16) // 32..512
		tv := 0.05 + float64(tSeed%90)/100     // 0.05..0.94
		k := kern(blockDim, regs, 0)

		base := occAt(k, config.ShareNone, 1)
		sh := occAt(k, config.ShareRegisters, tv)
		cfg := config.Default()

		// U + S = D (the effective-block invariant of §III-C).
		if sh.Unshared+sh.Pairs != base.Baseline {
			return false
		}
		// M = D + S and never below the baseline.
		if sh.Max != base.Baseline+sh.Pairs || sh.Max < base.Baseline {
			return false
		}
		// Resource feasibility: U*Rtb + S*(1+t)*Rtb <= R (Eq. 2).
		rtb := float64(k.RegsPerBlock())
		if used := float64(sh.Unshared)*rtb + float64(sh.Pairs)*(1+tv)*rtb; used > float64(cfg.RegsPerSM)+1e-6 {
			return false
		}
		// Hard caps always hold.
		if sh.Max*k.BlockDim > cfg.MaxThreadsPerSM && sh.Max > base.Baseline {
			return false
		}
		return sh.Max <= cfg.MaxBlocksPerSM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestOccupancyMonotonicInSharing: more sharing never launches fewer
// blocks.
func TestOccupancyMonotonicInSharing(t *testing.T) {
	for _, k := range []*kernel.Kernel{
		kern(256, 36, 0), kern(128, 48, 0), kern(508, 24, 0),
		kern(128, 18, 7200), kern(16, 16, 2180), kern(256, 16, 5120),
	} {
		mode := config.ShareRegisters
		if k.SmemPerBlock > 0 {
			mode = config.ShareScratchpad
		}
		prev := -1
		for pct := 0; pct <= 90; pct += 5 {
			occ := occAt(k, mode, 1-float64(pct)/100)
			if occ.Max < prev {
				t.Errorf("%d regs/%dB smem: M dropped from %d to %d at %d%%",
					k.RegsPerThread, k.SmemPerBlock, prev, occ.Max, pct)
			}
			prev = occ.Max
		}
	}
}

// TestOccupancyNotBindingResource: sharing a resource that is not the
// binding constraint launches no pairs (the Set-3 behaviour).
func TestOccupancyNotBindingResource(t *testing.T) {
	k := kern(512, 12, 0) // thread-limited: 3 blocks
	occ := occAt(k, config.ShareRegisters, 0.1)
	if occ.Pairs != 0 || occ.Max != occ.Baseline {
		t.Errorf("thread-limited kernel gained pairs: %+v", occ)
	}
	if occ.Limiter != "threads" {
		t.Errorf("limiter = %q", occ.Limiter)
	}
	k2 := kern(64, 16, 0) // block-limited
	if got := occAt(k2, config.ShareRegisters, 0.1); got.Pairs != 0 {
		t.Errorf("block-limited kernel gained pairs: %+v", got)
	}
}

// TestFootprintPricesEachPairOnce pins the one pricing rule: an unshared
// slot holds a full block, a pair with any live side holds r + ⌈t·r⌉ on
// the shared dimension (hotspot at t = 0.1: 9 216 + 922), and each live
// side a full block on the other dimension.
func TestFootprintPricesEachPairOnce(t *testing.T) {
	liveSet := func(slots ...int) func(int) bool {
		return func(s int) bool {
			for _, l := range slots {
				if l == s {
					return true
				}
			}
			return false
		}
	}
	price := func(k *kernel.Kernel, mode config.SharingMode, live func(int) bool) (int, int) {
		cfg := config.Default()
		cfg.Sharing, cfg.T = mode, 0.1
		return Footprint(&cfg, k, ComputeOccupancy(&cfg, k), live)
	}
	hotspot, lava := kern(256, 36, 0), kern(128, 18, 7200)
	cases := []struct {
		name       string
		k          *kernel.Kernel
		mode       config.SharingMode
		live       func(int) bool
		regs, smem int
	}{
		{"hotspot unshared, two of three slots", hotspot, config.ShareNone, liveSet(0, 2), 2 * 9216, 0},
		{"hotspot pairs, all live", hotspot, config.ShareRegisters, liveSet(0, 1, 2, 3, 4, 5), 3 * 10138, 0},
		{"hotspot pair, one side live", hotspot, config.ShareRegisters, liveSet(0), 10138, 0},
		{"hotspot pair, both sides live", hotspot, config.ShareRegisters, liveSet(0, 1), 10138, 0},
		{"hotspot pairs, none live", hotspot, config.ShareRegisters, liveSet(), 0, 0},
		{"lavaMD, one side of each pair", lava, config.ShareScratchpad, liveSet(0, 2), 2 * 2304, 2 * 7920},
		{"lavaMD, both sides of one pair", lava, config.ShareScratchpad, liveSet(2, 3), 2 * 2304, 7920},
	}
	for _, tc := range cases {
		if regs, smem := price(tc.k, tc.mode, tc.live); regs != tc.regs || smem != tc.smem {
			t.Errorf("%s: footprint (%d regs, %d smem), want (%d, %d)", tc.name, regs, smem, tc.regs, tc.smem)
		}
	}
}

func newMgr(t *testing.T, mode config.SharingMode, pairs, unshared, warps int) *Manager {
	t.Helper()
	cfg := config.Default()
	cfg.Sharing = mode
	cfg.T = 0.1
	occ := Occupancy{
		Baseline: unshared + pairs, Max: unshared + 2*pairs,
		Pairs: pairs, Unshared: unshared, PrivateRegs: 3, PrivateSmem: 512,
	}
	return NewManager(&cfg, occ, warps)
}

func TestRegisterLockLifecycle(t *testing.T) {
	m := newMgr(t, config.ShareRegisters, 1, 1, 4)
	slotA, slotB := 1, 2 // slot 0 is unshared
	if m.Shared(0) || !m.Shared(slotA) || !m.Shared(slotB) {
		t.Fatal("pair layout wrong")
	}
	if m.PartnerSlot(slotA) != slotB || m.PartnerSlot(0) != -1 {
		t.Fatal("partner mapping wrong")
	}

	// Before any acquisition both sides rank as unshared.
	if m.Category(slotA) != CatUnshared || m.Category(slotB) != CatUnshared {
		t.Fatal("category before ownership must be unshared")
	}

	// Warp 0 of A acquires: A becomes owner.
	if !m.TryAcquireReg(slotA, 0) {
		t.Fatal("first acquire failed")
	}
	if m.Category(slotA) != CatOwner || m.Category(slotB) != CatNonOwner {
		t.Fatal("ownership not established")
	}
	// B's warp 0 cannot acquire (pair lock held), nor can B's warp 1
	// (deadlock-avoidance: A holds active locks).
	if m.TryAcquireReg(slotB, 0) || m.TryAcquireReg(slotB, 1) {
		t.Fatal("deadlock-avoidance rule violated")
	}
	// A's other warps may keep acquiring.
	if !m.TryAcquireReg(slotA, 1) {
		t.Fatal("owner side blocked from its own locks")
	}
	// Re-acquire by the same warp is a no-op success.
	if !m.TryAcquireReg(slotA, 0) {
		t.Fatal("re-acquire failed")
	}
	if m.LockAcquires != 2 {
		t.Fatalf("acquires = %d, want 2", m.LockAcquires)
	}

	// Warp 0 of A finishes: its pair lock frees, but warp 1 still holds,
	// so B remains blocked entirely.
	m.ReleaseReg(slotA, 0)
	if m.TryAcquireReg(slotB, 0) {
		t.Fatal("rule (b): B must wait until ALL of A's lock holders finish")
	}
	// Warp 1 of A finishes: now B can acquire and takes ownership.
	m.ReleaseReg(slotA, 1)
	if !m.TryAcquireReg(slotB, 0) {
		t.Fatal("B blocked after all A locks released")
	}
	if m.Category(slotB) != CatOwner || m.Category(slotA) != CatNonOwner {
		t.Fatal("ownership did not flip")
	}
	if m.OwnershipXfers != 1 {
		t.Fatalf("ownership transfers = %d", m.OwnershipXfers)
	}
}

// TestFig5DeadlockScenario reproduces the barrier deadlock of Fig. 5 and
// checks the avoidance rule breaks it: with W2 (block A) holding a lock,
// W3 (block B) must NOT be able to acquire — so B's warps all wait on A
// rather than deadlocking pairwise across a barrier.
func TestFig5DeadlockScenario(t *testing.T) {
	m := newMgr(t, config.ShareRegisters, 1, 0, 4)
	slotA, slotB := 0, 1
	// W2 := warp 1 of A acquires its pair lock.
	if !m.TryAcquireReg(slotA, 1) {
		t.Fatal("setup failed")
	}
	// W3 := warp 0 of B tries to acquire the OTHER pair's lock. Without
	// the block-level rule this would succeed and deadlock at the
	// barrier; the rule forbids it.
	if m.TryAcquireReg(slotB, 0) {
		t.Fatal("Fig. 5 deadlock: B acquired while A holds an active lock")
	}
}

func TestScratchpadLockLifecycle(t *testing.T) {
	m := newMgr(t, config.ShareScratchpad, 1, 0, 2)
	slotA, slotB := 0, 1
	var addrs [kernel.WarpSize]uint32
	addrs[0] = 100 // below PrivateSmem=512
	if m.SmemNeedsLock(slotA, &addrs, 1) {
		t.Fatal("private access flagged as shared")
	}
	addrs[0] = 600
	if !m.SmemNeedsLock(slotA, &addrs, 1) {
		t.Fatal("shared access not flagged")
	}
	// Inactive lanes don't count.
	if m.SmemNeedsLock(slotA, &addrs, 0) {
		t.Fatal("inactive lane flagged")
	}

	if !m.TryAcquireSmem(slotA) {
		t.Fatal("acquire failed")
	}
	if m.TryAcquireSmem(slotB) {
		t.Fatal("partner acquired a held block lock")
	}
	if !m.TryAcquireSmem(slotA) {
		t.Fatal("re-acquire by holder failed")
	}
	// The lock persists until the block finishes.
	m.BlockFinished(slotA, true)
	if !m.TryAcquireSmem(slotB) {
		t.Fatal("lock not released at block completion")
	}
}

func TestBlockFinishedOwnershipTransfer(t *testing.T) {
	m := newMgr(t, config.ShareRegisters, 1, 0, 2)
	slotA, slotB := 0, 1
	m.TryAcquireReg(slotA, 0)
	xfers := m.OwnershipXfers

	// Owner finishes with a live partner: ownership transfers.
	m.BlockFinished(slotA, true)
	if m.Category(slotB) != CatOwner {
		t.Fatal("partner did not become owner")
	}
	if m.OwnershipXfers != xfers+1 {
		t.Error("transfer not counted")
	}
	// The relaunched block in slot A starts as the non-owner.
	if m.Category(slotA) != CatNonOwner {
		t.Fatal("relaunched block should rank as non-owner")
	}
	// Once the surviving owner actually locks shared registers, the
	// relaunched block is barred by the deadlock-avoidance rule. (Until
	// then rule (a) of §III-A would let it acquire — ownership follows
	// whoever locks first.)
	if !m.TryAcquireReg(slotB, 1) {
		t.Fatal("owner blocked from its own shared registers")
	}
	if m.TryAcquireReg(slotA, 0) {
		t.Fatal("relaunched block acquired against a locking owner")
	}
	// Non-owner finishing changes nothing for the owner.
	m.BlockFinished(slotA, true)
	if m.Category(slotB) != CatOwner {
		t.Fatal("owner lost ownership when the non-owner finished")
	}
	// Owner finishing with NO partner resets the pair.
	m.BlockFinished(slotB, false)
	if m.Category(slotA) != CatUnshared || m.Category(slotB) != CatUnshared {
		t.Fatal("pair not reset")
	}
}

func TestRegNeedsLockStaticCheck(t *testing.T) {
	m := newMgr(t, config.ShareRegisters, 1, 1, 2)
	priv := &isa.Instr{Op: isa.IADD, GuardPred: isa.NoPred, Dst: isa.Reg(2), A: isa.Reg(0), B: isa.Reg(1)}
	shared := &isa.Instr{Op: isa.IADD, GuardPred: isa.NoPred, Dst: isa.Reg(3), A: isa.Reg(0), B: isa.Reg(1)}
	if m.RegNeedsLock(1, priv) {
		t.Error("registers 0..2 are private at PrivateRegs=3")
	}
	if !m.RegNeedsLock(1, shared) {
		t.Error("register 3 is in the shared pool")
	}
	if m.RegNeedsLock(0, shared) {
		t.Error("unshared block never needs locks")
	}
}
