package tenancy

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/kernel"
)

// splitmix64 drives the fuzzed footprints deterministically.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// footprintLaunch builds a launch whose kernel has only the occupancy-
// relevant fields set; Pack never executes instructions.
func footprintLaunch(name string, blockDim, regs, smem, blocks int) *kernel.Launch {
	return &kernel.Launch{
		Kernel: &kernel.Kernel{
			Name:          name,
			BlockDim:      blockDim,
			RegsPerThread: regs,
			SmemPerBlock:  smem,
		},
		GridDim: blocks,
	}
}

// TestPackNeverOvercommits is the packer's property test: across fuzzed
// kernel footprints, sharing modes, and all three packing strategies,
// what the tenants granted on any SM hold at full residency, priced by
// the one footprint rule (core.Footprint) — the rule the SM checks when
// it is built, so no second formula has to agree with it — never
// exceeds the SM's capacity in any dimension.
func TestPackNeverOvercommits(t *testing.T) {
	rng := splitmix64(12345)
	modes := []config.SharingMode{config.ShareNone, config.ShareRegisters, config.ShareScratchpad}
	ts := []float64{0.1, 0.3, 0.5, 1.0}
	strategies := []Packing{FirstFit, BestFit, WorstFit}

	packed := 0
	for trial := 0; trial < 400; trial++ {
		cfg := config.Default()
		cfg.Sharing = modes[rng.intn(len(modes))]
		cfg.T = ts[rng.intn(len(ts))]

		n := 1 + rng.intn(4)
		launches := make([]*kernel.Launch, n)
		spec := &Spec{Policy: CoSched, Tenants: make([]TenantSpec, n)}
		for i := range launches {
			launches[i] = footprintLaunch(
				fmt.Sprintf("fuzz%d_%d", trial, i),
				32*(1+rng.intn(16)), // 32..512 threads
				8+rng.intn(33),      // 8..40 regs/thread
				512*rng.intn(17),    // 0..8KB smem
				1+rng.intn(64),      // 1..64 blocks
			)
			spec.Tenants[i] = TenantSpec{Workload: "fuzz"}
		}

		for _, strat := range strategies {
			spec.Packing = strat
			pl, err := Pack(&cfg, launches, spec)
			if err != nil {
				continue // unschedulable footprints are a valid reject
			}
			packed++
			granted := make([]int, len(launches))
			for si := range pl.SMs {
				regs, smem, threads, slots := 0, 0, 0, 0
				for _, ta := range pl.SMs[si].Tenants {
					occ := ta.Occ
					if occ.Unshared+2*occ.Pairs != occ.Max {
						t.Fatalf("trial %d %s SM%d tenant %d: U=%d P=%d does not compose Max=%d",
							trial, strat, si, ta.Tenant, occ.Unshared, occ.Pairs, occ.Max)
					}
					k := launches[ta.Tenant].Kernel
					r, s := core.Footprint(&cfg, k, occ, func(int) bool { return true })
					regs += r
					smem += s
					threads += occ.Max * k.Threads()
					slots += occ.Max
					granted[ta.Tenant] += occ.Max
				}
				if regs > cfg.RegsPerSM {
					t.Fatalf("trial %d %s SM%d: granted %d registers, capacity %d", trial, strat, si, regs, cfg.RegsPerSM)
				}
				if smem > cfg.SmemPerSM {
					t.Fatalf("trial %d %s SM%d: granted %d scratchpad bytes, capacity %d", trial, strat, si, smem, cfg.SmemPerSM)
				}
				if threads > cfg.MaxThreadsPerSM {
					t.Fatalf("trial %d %s SM%d: granted %d threads, capacity %d", trial, strat, si, threads, cfg.MaxThreadsPerSM)
				}
				if slots > cfg.MaxBlocksPerSM {
					t.Fatalf("trial %d %s SM%d: granted %d block slots, capacity %d", trial, strat, si, slots, cfg.MaxBlocksPerSM)
				}
			}
			// Every admitted tenant got at least one slot.
			for ti, n := range granted {
				if n == 0 {
					t.Fatalf("trial %d %s: tenant %d admitted with zero slots", trial, strat, ti)
				}
			}
		}
	}
	if packed < 100 {
		t.Fatalf("only %d/1200 fuzz cases packed successfully; the generator is too aggressive to exercise the property", packed)
	}
}

// TestPackSpatialDisjoint checks the MIG analog's hard isolation: every
// SM is owned by exactly one tenant, ranges are contiguous, and all
// tenants get at least one SM.
func TestPackSpatialDisjoint(t *testing.T) {
	cfg := config.Default()
	launches := []*kernel.Launch{
		footprintLaunch("a", 256, 16, 0, 28),
		footprintLaunch("b", 128, 24, 4096, 28),
		footprintLaunch("c", 64, 8, 0, 28),
	}
	spec := &Spec{Policy: Spatial, Tenants: []TenantSpec{{Workload: "a"}, {Workload: "b"}, {Workload: "c"}}}
	pl, err := Pack(&cfg, launches, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.SMs) != cfg.NumSMs {
		t.Fatalf("placement covers %d SMs, want %d", len(pl.SMs), cfg.NumSMs)
	}
	seen := make([]int, len(launches))
	prev := -1
	for si := range pl.SMs {
		if n := len(pl.SMs[si].Tenants); n != 1 {
			t.Fatalf("SM%d hosts %d tenants under spatial partitioning, want exactly 1", si, n)
		}
		ti := pl.SMs[si].Tenants[0].Tenant
		if ti < prev {
			t.Fatalf("SM%d owned by tenant %d after tenant %d: ranges are not contiguous", si, ti, prev)
		}
		prev = ti
		seen[ti]++
	}
	for ti, n := range seen {
		if n == 0 {
			t.Fatalf("tenant %d got no SMs", ti)
		}
	}
	// 14 SMs over 3 tenants: 5 + 5 + 4.
	if seen[0] != 5 || seen[1] != 5 || seen[2] != 4 {
		t.Fatalf("SM split = %v, want [5 5 4]", seen)
	}
}

// TestPackStrategiesDiffer sanity-checks that the strategies are not
// all aliases: under an asymmetric mix, BestFit concentrates blocks
// while WorstFit spreads them.
func TestPackStrategiesDiffer(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 4
	launches := []*kernel.Launch{
		footprintLaunch("big", 512, 32, 0, 3),
		footprintLaunch("small", 64, 8, 0, 3),
	}
	spec := &Spec{Policy: CoSched, Tenants: []TenantSpec{{Workload: "big"}, {Workload: "small"}}}

	perStrategy := map[Packing][]int{}
	for _, strat := range []Packing{FirstFit, BestFit, WorstFit} {
		spec.Packing = strat
		pl, err := Pack(&cfg, launches, spec)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		occupied := []int{}
		for si := range pl.SMs {
			if len(pl.SMs[si].Tenants) > 0 {
				occupied = append(occupied, si)
			}
		}
		perStrategy[strat] = occupied
	}
	// WorstFit must spread across more SMs than BestFit concentrates.
	if len(perStrategy[WorstFit]) <= len(perStrategy[BestFit]) {
		t.Fatalf("WorstFit occupied %v, BestFit %v: expected WorstFit to spread wider", perStrategy[WorstFit], perStrategy[BestFit])
	}
}

// TestSpecValidate covers the spec's consistency rules.
func TestSpecValidate(t *testing.T) {
	cfg := config.Default()
	good := Spec{Policy: CoSched, Tenants: []TenantSpec{{Workload: "gaussian"}}}
	if err := good.Validate(&cfg); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"no tenants", Spec{Policy: CoSched}},
		{"bad policy", Spec{Policy: Policy(9), Tenants: []TenantSpec{{Workload: "gaussian"}}}},
		{"bad packing", Spec{Policy: CoSched, Packing: Packing(9), Tenants: []TenantSpec{{Workload: "gaussian"}}}},
		{"unknown workload", Spec{Policy: CoSched, Tenants: []TenantSpec{{Workload: "nope"}}}},
		{"missing workload", Spec{Policy: CoSched, Tenants: []TenantSpec{{}}}},
		{"quota without timeslice", Spec{Policy: CoSched, QuotaCycles: 100, Tenants: []TenantSpec{{Workload: "gaussian"}}}},
		{"timeslice without quota", Spec{Policy: TimeSlice, Tenants: []TenantSpec{{Workload: "gaussian"}}}},
		{"negative scale", Spec{Policy: CoSched, Tenants: []TenantSpec{{Workload: "gaussian", Scale: -1}}}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(&cfg); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
	dyn := cfg
	dyn.DynWarp = true
	if err := good.Validate(&dyn); err == nil || !strings.Contains(err.Error(), "DynWarp") {
		t.Errorf("DynWarp config: got %v, want a DynWarp error", err)
	}
}

// TestSpecJSONRoundTrip proves the descriptor marshals to stable,
// self-describing JSON — the property the runner's cache key relies on.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Policy:      TimeSlice,
		Packing:     WorstFit,
		QuotaCycles: 5000,
		Tenants: []TenantSpec{
			{Name: "latency", Workload: "gaussian"},
			{Workload: "hotspot", Scale: 2},
		},
	}
	b, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"policy":"timeslice","packing":"worstfit","quota_cycles":5000,"tenants":[{"name":"latency","workload":"gaussian"},{"workload":"hotspot","scale":2}]}`
	if string(b) != want {
		t.Fatalf("spec JSON = %s\nwant        %s", b, want)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Policy != TimeSlice || back.Packing != WorstFit || back.QuotaCycles != 5000 || len(back.Tenants) != 2 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if _, err := ParsePolicy("mig"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	if _, err := ParsePacking("random"); err == nil {
		t.Fatal("unknown packing name accepted")
	}
}
