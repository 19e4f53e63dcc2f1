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

// TestNewMultiRefusesOvercommittedSM: an SM checks its tenants against
// its own capacity once, when it is built. Two tenants of a kernel with
// hotspot's 9 216-register block, three unshared blocks each, fit the
// SM's block slots (6 of 8) and threads (1 536 of 1 536) but would hold
// 55 296 of its 32 768 registers: NewMulti refuses them, naming the SM
// and both totals. One pair each (2 × (9 216 + 922) registers) fits,
// runs and passes the tenancy audit, and each tenant's residency peak is
// a count of its live slots.
func TestNewMultiRefusesOvercommittedSM(t *testing.T) {
	b := kernel.NewBuilder("hotspot-block", 256)
	b.SetRegs(36)
	b.MovI(10, 1)
	for i := 0; i < 20; i++ {
		b.IAdd(10, isa.Reg(10), isa.Imm(1))
	}
	b.Exit()
	k := b.MustBuild()
	launch := &kernel.Launch{Kernel: k, GridDim: 64}
	two := func(occ core.Occupancy) []TenantLaunch {
		return []TenantLaunch{{ID: 0, Launch: launch, Occ: occ}, {ID: 1, Launch: launch, Occ: occ}}
	}

	cfg := config.Default()
	three := core.ComputeOccupancy(&cfg, k)
	if three.Unshared != 3 || three.Pairs != 0 {
		t.Fatalf("setup: occupancy %+v, want three unshared blocks", three)
	}
	_, err := NewMulti(5, &cfg, two(three), mem.NewSystem(&cfg))
	if err == nil {
		t.Fatal("an SM whose tenants hold 55296 of its 32768 registers was built")
	}
	for _, want := range []string{"SM5", "55296 registers", "32768-register"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}

	cfg.Sharing, cfg.T = config.ShareRegisters, 0.1
	pair := core.ComputeOccupancy(&cfg, k) // three pairs; keep one
	pair.Baseline, pair.Max, pair.Pairs = 1, 2, 1
	ms := mem.NewSystem(&cfg)
	sm, err := NewMulti(5, &cfg, two(pair), ms)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 3; slot++ { // tenant 0's pair, one side of tenant 1's
		mustLaunch(t, sm, slot, slot)
	}
	if err := sm.AuditTenancy(); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, sm, ms, 200000)
	if err := sm.AuditTenancy(); err != nil {
		t.Fatal(err)
	}
	for ti, want := range []int{2, 1} {
		if got := sm.TenantStats(ti).MaxResidentTB; got != want {
			t.Errorf("tenant %d residency peak %d, want %d", ti, got, want)
		}
	}
}
