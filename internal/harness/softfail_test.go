package harness

import (
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/workloads"
)

// brokenSim declares hotspot under a configuration gpu.New rejects
// before any simulation work.
func brokenSim(t *testing.T, label string, breakIt func(*config.Config)) sim {
	t.Helper()
	spec, err := workloads.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	return variant(spec, UnsharedLRR, label, breakIt)
}

// TestSoftFailZeroesAndNotes: a failing simulation under SoftFail
// renders as cells computed from zeroed statistics instead of an error
// and adds one diagnosis note per simulation (not per cell) after the
// experiment's own notes; a strict session reports the first failure in
// declaration order.
func TestSoftFailZeroesAndNotes(t *testing.T) {
	noSMs := brokenSim(t, "no-sms", func(c *config.Config) { c.NumSMs = 0 })
	noRegs := brokenSim(t, "no-regs", func(c *config.Config) { c.RegsPerSM = 0 })
	e := ipcRow("test-broken", noSMs, noSMs, noRegs, noSMs) // repeats must dedup to one note
	e.notes = "declared note"
	e.rows[0].cells = append(e.rows[0].cells, analytic(func() float64 { return 7 }))
	e.columns = append(e.columns, "analytic")
	declareForTest(t, e)

	s := NewSession(1)
	s.SoftFail = true
	for i := 0; i < 2; i++ { // a second rendering carries no leftovers
		tab, err := s.Experiment("test-broken")
		if err != nil {
			t.Fatalf("soft-fail surfaced an error: %v", err)
		}
		if got := tab.Rows[0].Cells; len(got) != 5 || got[0] != 0 || got[1] != 0 || got[2] != 0 || got[3] != 0 || got[4] != 7 {
			t.Fatalf("cells = %v, want the four failed cells zeroed and the analytic cell intact", got)
		}
		const head = "declared note; 2 failed cell(s) zeroed: hotspot under Unshared-LRR/no-sms: "
		if !strings.HasPrefix(tab.Notes, head) {
			t.Fatalf("notes = %q, want prefix %q", tab.Notes, head)
		}
		if !strings.Contains(tab.Notes, "NumSMs") ||
			strings.Count(tab.Notes, "no-sms") != 1 ||
			strings.Count(tab.Notes, " | hotspot under Unshared-LRR/no-regs: ") != 1 {
			t.Errorf("notes do not carry one diagnosis per failed simulation, in declaration order: %q", tab.Notes)
		}
	}

	// Without SoftFail the same experiment must fail loudly, with the
	// first failed simulation in declaration order.
	_, err := NewSession(1).Experiment("test-broken")
	if err == nil {
		t.Fatal("strict session swallowed the failure")
	}
	if !strings.HasPrefix(err.Error(), "hotspot under Unshared-LRR/no-sms: ") {
		t.Errorf("strict error = %q, want the first declared failure (no-sms)", err)
	}
}

// TestSessionInvariantStridePropagates: the session-level stride
// reaches every job configuration (and therefore the cache key),
// uniformly overriding per-config values so one sweep audits at one
// rate.
func TestSessionInvariantStridePropagates(t *testing.T) {
	spec, err := workloads.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	plain := named(spec, UnsharedLRR, 0.1)
	explicit := variant(spec, UnsharedLRR, "stride64", func(c *config.Config) { c.InvariantStride = 64 })
	declareForTest(t, ipcRow("test-stride", plain, explicit))

	dir := t.TempDir()
	audited := NewSession(1)
	audited.InvariantStride = 512
	audited.Runner.CacheDir = dir
	if got := audited.job(explicit).Config.InvariantStride; got != 512 {
		t.Errorf("job stride = %d, want the session's 512 over the configuration's 64", got)
	}
	if _, err := audited.Experiment("test-stride"); err != nil {
		t.Fatal(err)
	}
	// Both cells became the same stride-512 job: one simulation.
	if c := audited.Counters(); c.Simulated != 1 {
		t.Errorf("audited session simulated %d jobs, want 1 (stride overrides uniformly)", c.Simulated)
	}

	// A session without a stride leaves the configurations alone: two
	// distinct jobs, neither of them the audited session's cache entry.
	bare := NewSession(1)
	bare.Runner.CacheDir = dir
	if _, err := bare.Experiment("test-stride"); err != nil {
		t.Fatal(err)
	}
	if c := bare.Counters(); c.Simulated != 2 || c.DiskHits != 0 {
		t.Errorf("unaudited session: %d simulated, %d disk hits; want 2 and 0 (the stride is part of the key)",
			c.Simulated, c.DiskHits)
	}
}
