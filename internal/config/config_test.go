package config

import (
	"math"
	"strings"
	"testing"
)

// TestDefaultMatchesTableI pins the Table I architecture parameters.
func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if c.NumSMs != 14 {
		t.Errorf("NumSMs = %d (Table I: 14 clusters x 1 core)", c.NumSMs)
	}
	if c.MaxBlocksPerSM != 8 || c.MaxThreadsPerSM != 1536 {
		t.Errorf("occupancy caps = %d/%d (Table I: 8 blocks, 1536 threads)",
			c.MaxBlocksPerSM, c.MaxThreadsPerSM)
	}
	if c.RegsPerSM != 32768 || c.SmemPerSM != 16384 {
		t.Errorf("resources = %d regs / %d B (Table I: 32768 / 16KB)",
			c.RegsPerSM, c.SmemPerSM)
	}
	if c.NumSchedulers != 2 || c.Sched != SchedLRR {
		t.Errorf("schedulers = %d %v (Table I: 2, LRR)", c.NumSchedulers, c.Sched)
	}
	if c.L1Sets*c.L1Ways*c.L1LineSz != 16384 {
		t.Errorf("L1 = %d B (Table I: 16KB)", c.L1Sets*c.L1Ways*c.L1LineSz)
	}
	if c.L2Partitions*c.L2Sets*c.L2Ways*c.L1LineSz != 768*1024 {
		t.Errorf("L2 = %d B (Table I: 768KB)", c.L2Partitions*c.L2Sets*c.L2Ways*c.L1LineSz)
	}
	dt := c.DRAMTiming
	if dt.TRRD != 6 || dt.TWR != 12 || dt.TRCD != 12 || dt.TRAS != 28 ||
		dt.TRP != 12 || dt.TRC != 40 || dt.TCL != 12 || dt.TCDLR != 5 {
		t.Errorf("GDDR3 timings differ from Table I: %+v", dt)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero SMs":        func(c *Config) { c.NumSMs = 0 },
		"zero blocks":     func(c *Config) { c.MaxBlocksPerSM = 0 },
		"zero threads":    func(c *Config) { c.MaxThreadsPerSM = 0 },
		"zero regs":       func(c *Config) { c.RegsPerSM = 0 },
		"negative smem":   func(c *Config) { c.SmemPerSM = -1 },
		"zero schedulers": func(c *Config) { c.NumSchedulers = 0 },
		"zero latency":    func(c *Config) { c.SPLat = 0 },
		"bad line size":   func(c *Config) { c.L1LineSz = 100 },
		"zero banks":      func(c *Config) { c.SmemBanks = 0 },
		"t too large":     func(c *Config) { c.Sharing = ShareRegisters; c.T = 1.5 },
		"t zero":          func(c *Config) { c.Sharing = ShareScratchpad; c.T = 0 },
		"dyn bad period":  func(c *Config) { c.DynWarp = true; c.DynPeriod = 0 },
		"dyn bad step":    func(c *Config) { c.DynWarp = true; c.DynStep = 2 },
		"neg launch lat":  func(c *Config) { c.CTALaunchLat = -1 },
		"neg icnt":        func(c *Config) { c.IcntLat = -1 },
		"zero L2":         func(c *Config) { c.L2Partitions = 0 },
		"zero MSHRs":      func(c *Config) { c.L1MSHRs = 0 },
		"zero DRAM banks": func(c *Config) { c.DRAMBanksPerPartition = 0 },
		"zero L1 hit lat": func(c *Config) { c.L1HitLat = 0 },
		"smem lat > max":  func(c *Config) { c.SmemLat = MaxSMLat + 1 },
		"warps > sched":   func(c *Config) { c.MaxThreadsPerSM, c.NumSchedulers = 4096, 2 },
		"1-thread blocks": func(c *Config) { c.MaxBlocksPerSM, c.NumSchedulers = 65, 1 },
	}
	for name, mutate := range mutations {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

// TestValidateHardening covers the adversarial corners: NaN thresholds,
// out-of-range enums, negative watchdog/audit knobs, and absurd cache
// geometry. Each rejection must name the offending field so an error
// surfaced through gsim/gexp is actionable.
func TestValidateHardening(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantMsg string
	}{
		{"NaN t", func(c *Config) { c.Sharing = ShareRegisters; c.T = math.NaN() }, "threshold t"},
		{"negative t", func(c *Config) { c.Sharing = ShareRegisters; c.T = -0.5 }, "threshold t"},
		{"inf t", func(c *Config) { c.Sharing = ShareScratchpad; c.T = math.Inf(1) }, "threshold t"},
		{"NaN t ignored without sharing", func(c *Config) { c.T = math.NaN() }, ""},
		{"NaN dyn step", func(c *Config) { c.DynWarp = true; c.DynStep = math.NaN() }, "DynStep"},
		{"sched out of range", func(c *Config) { c.Sched = SchedOWF + 1 }, "scheduling policy"},
		{"sharing out of range", func(c *Config) { c.Sharing = ShareScratchpad + 3 }, "sharing mode"},
		{"l1 policy out of range", func(c *Config) { c.L1Policy = PolicyRand + 1 }, "cache policy"},
		{"two-level without group", func(c *Config) { c.Sched = SchedTwoLevel; c.TwoLevelGroup = 0 }, "TwoLevelGroup"},
		{"two-level group irrelevant for LRR", func(c *Config) { c.TwoLevelGroup = 0 }, ""},
		{"negative max cycles", func(c *Config) { c.MaxCycles = -1 }, "MaxCycles"},
		{"negative trace interval", func(c *Config) { c.TraceInterval = -5 }, "TraceInterval"},
		{"negative invariant stride", func(c *Config) { c.InvariantStride = -64 }, "InvariantStride"},
		{"negative progress window", func(c *Config) { c.ProgressWindow = -1 }, "ProgressWindow"},
		{"negative L1 hit latency", func(c *Config) { c.L1HitLat = -1 }, "hit latencies"},
		{"negative L2 hit latency", func(c *Config) { c.L2HitLat = -1 }, "hit latencies"},
		{"line size zero", func(c *Config) { c.L1LineSz = 0 }, "L1LineSz"},
		{"line size negative", func(c *Config) { c.L1LineSz = -128 }, "L1LineSz"},
		{"negative L2 sets", func(c *Config) { c.L2Sets = -4 }, "L2 geometry"},
		{"zero DRAM row", func(c *Config) { c.DRAMRowBytes = 0 }, "DRAM geometry"},
		{"zero DRAM data latency", func(c *Config) { c.DRAMDataLat = 0 }, "DRAM geometry"},
		{"audit knobs accepted", func(c *Config) { c.InvariantStride = 1024; c.ProgressWindow = 100_000 }, ""},
		{"negative checkpoint stride", func(c *Config) { c.CheckpointStride = -1 }, "CheckpointStride"},
		{"negative checkpoint stride large", func(c *Config) { c.CheckpointStride = -4096 }, "CheckpointStride"},
		{"zero checkpoint stride accepted", func(c *Config) { c.CheckpointStride = 0 }, ""},
		{"positive checkpoint stride accepted", func(c *Config) { c.CheckpointStride = 2048 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			err := c.Validate()
			if tc.wantMsg == "" {
				if err != nil {
					t.Fatalf("unexpected rejection: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("validation passed")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not name the field (want %q)", err, tc.wantMsg)
			}
		})
	}
}

func TestParsePolicyAndSharing(t *testing.T) {
	for s, want := range map[string]SchedPolicy{
		"LRR": SchedLRR, "gto": SchedGTO, "2lvl": SchedTwoLevel, "OWF": SchedOWF,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
	for s, want := range map[string]SharingMode{
		"none": ShareNone, "reg": ShareRegisters, "smem": ShareScratchpad,
	} {
		got, err := ParseSharing(s)
		if err != nil || got != want {
			t.Errorf("ParseSharing(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSharing("bogus"); err == nil {
		t.Error("bogus sharing accepted")
	}
	// Round trip through String for every policy.
	for _, p := range []SchedPolicy{SchedLRR, SchedGTO, SchedTwoLevel, SchedOWF} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("policy %v does not round-trip", p)
		}
	}
}

func TestSharingPercent(t *testing.T) {
	c := Default()
	if c.SharingPercent() != 0 {
		t.Error("no sharing must report 0%")
	}
	c.Sharing = ShareRegisters
	c.T = 0.1
	if got := c.SharingPercent(); got < 89.99 || got > 90.01 {
		t.Errorf("t=0.1 -> %v%%, want 90%%", got)
	}
}

func TestCanonicalJSON(t *testing.T) {
	c := Default()
	b1, err := c.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := c.CanonicalJSON()
	if string(b1) != string(b2) {
		t.Error("CanonicalJSON is not stable across calls")
	}
	c.T = 0.3
	b3, _ := c.CanonicalJSON()
	if string(b1) == string(b3) {
		t.Error("CanonicalJSON did not change with the configuration")
	}
}

// TestCanonicalJSONExcludesEngineKnobs pins the engine-knob exclusion:
// reference mode and the checkpoint stride cannot change results, so
// they must not change job cache keys.
func TestCanonicalJSONExcludesEngineKnobs(t *testing.T) {
	c := Default()
	base, err := c.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	c.Reference = true
	c.CheckpointStride = 4096
	knobbed, _ := c.CanonicalJSON()
	if string(base) != string(knobbed) {
		t.Error("engine knobs leaked into CanonicalJSON (cache keys would fragment)")
	}
}
