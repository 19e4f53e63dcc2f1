package smcore

import (
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// TestCappedLaunchPricedFromLiveSlots: a capped tenant's launch is
// checked against core.Footprint of its live slots plus the new one. A
// launch past the grant is refused with an error naming the tenant, and
// a finished pair's charge is gone by construction — nothing books or
// releases it — so the same slots launch again once it has drained.
func TestCappedLaunchPricedFromLiveSlots(t *testing.T) {
	b := kernel.NewBuilder("capped", 256)
	b.SetRegs(36) // hotspot's 9 216-register block
	b.MovI(10, 1)
	for i := 0; i < 20; i++ {
		b.IAdd(10, isa.Reg(10), isa.Imm(1))
	}
	b.Exit()
	k := b.MustBuild()

	cfg := config.Default()
	cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
	occ := core.ComputeOccupancy(&cfg, k)
	if occ.Unshared != 0 || occ.Pairs != 3 {
		t.Fatalf("setup: occupancy %+v, want three pairs", occ)
	}
	// Grant two pairs' worth: r + ⌈t·r⌉ each.
	capRegs := 2 * (9216 + 922)
	ms := mem.NewSystem(&cfg)
	sm, err := NewMulti(0, &cfg, []TenantLaunch{{
		ID: 7, Launch: &kernel.Launch{Kernel: k, GridDim: 64}, Occ: occ, CapRegs: capRegs,
	}}, ms)
	if err != nil {
		t.Fatal(err)
	}

	for slot := 0; slot < 4; slot++ { // pairs 0 and 1, both sides
		mustLaunch(t, sm, slot, slot)
	}
	err = sm.LaunchBlock(4, 4) // would open pair 2
	if err == nil {
		t.Fatal("launch past the tenant's register grant was accepted")
	}
	if !strings.Contains(err.Error(), "tenant 7") {
		t.Errorf("refusal does not name the tenant: %v", err)
	}
	if sm.blocks[4].live || sm.ActiveBlocks() != 4 {
		t.Fatalf("refused launch left state behind: slot 4 live=%v, %d active", sm.blocks[4].live, sm.ActiveBlocks())
	}
	if err := sm.AuditTenancy(); err != nil {
		t.Fatal(err)
	}

	runToCompletion(t, sm, ms, 200000)
	// Pairs 0 and 1 drained: what they held is released with their
	// liveness, so pairs 1 and 2 fit the same grant.
	for slot := 2; slot < 6; slot++ {
		mustLaunch(t, sm, slot, 4+slot)
	}
	if err := sm.LaunchBlock(0, 10); err == nil {
		t.Fatal("after the release, a third live pair was still accepted")
	}
	if err := sm.AuditTenancy(); err != nil {
		t.Fatal(err)
	}
	if got := sm.TenantStats(0).MaxResidentTB; got != 4 {
		t.Errorf("tenant residency peak %d, want 4", got)
	}
}
