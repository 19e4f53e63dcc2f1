// Package config holds the GPU configuration. The defaults reproduce
// Table I of the paper (the GPGPU-Sim baseline architecture): 14 clusters
// of 1 SM, 8 blocks and 1536 threads per SM, 32768 registers and 16KB of
// scratchpad per SM, two LRR warp schedulers, 16KB L1 per SM, a 768KB
// shared L2, and an FR-FCFS GDDR3 DRAM model.
package config

import (
	"encoding/json"
	"fmt"
)

// SchedPolicy selects the warp scheduling policy.
type SchedPolicy uint8

// Warp scheduling policies evaluated in the paper.
const (
	SchedLRR      SchedPolicy = iota // loose round-robin (baseline)
	SchedGTO                         // greedy-then-oldest
	SchedTwoLevel                    // two-level (Narasiman et al.)
	SchedOWF                         // owner-warp-first (the paper's §IV-A)
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedLRR:
		return "LRR"
	case SchedGTO:
		return "GTO"
	case SchedTwoLevel:
		return "TwoLevel"
	case SchedOWF:
		return "OWF"
	}
	return fmt.Sprintf("SchedPolicy(%d)", uint8(p))
}

// ParsePolicy converts a policy name (case-sensitive, as printed by
// String) to a SchedPolicy.
func ParsePolicy(s string) (SchedPolicy, error) {
	switch s {
	case "LRR", "lrr":
		return SchedLRR, nil
	case "GTO", "gto":
		return SchedGTO, nil
	case "TwoLevel", "twolevel", "2lvl":
		return SchedTwoLevel, nil
	case "OWF", "owf":
		return SchedOWF, nil
	}
	return 0, fmt.Errorf("unknown scheduling policy %q", s)
}

// SharingMode selects which SM resource thread blocks share.
type SharingMode uint8

// Sharing modes.
const (
	ShareNone       SharingMode = iota // baseline: block-granularity allocation
	ShareRegisters                     // register sharing (§III-A)
	ShareScratchpad                    // scratchpad sharing (§III-B)
)

func (m SharingMode) String() string {
	switch m {
	case ShareNone:
		return "none"
	case ShareRegisters:
		return "registers"
	case ShareScratchpad:
		return "scratchpad"
	}
	return fmt.Sprintf("SharingMode(%d)", uint8(m))
}

// ParseSharing converts a sharing-mode name to a SharingMode.
func ParseSharing(s string) (SharingMode, error) {
	switch s {
	case "none", "off":
		return ShareNone, nil
	case "registers", "reg", "register":
		return ShareRegisters, nil
	case "scratchpad", "smem", "shared":
		return ShareScratchpad, nil
	}
	return 0, fmt.Errorf("unknown sharing mode %q", s)
}

// CachePolicy selects a cache replacement policy.
type CachePolicy uint8

// Cache replacement policies.
const (
	PolicyLRU  CachePolicy = iota // least recently used (default)
	PolicyFIFO                    // oldest-filled line first
	PolicyRand                    // deterministic pseudo-random way
)

func (p CachePolicy) String() string {
	switch p {
	case PolicyLRU:
		return "LRU"
	case PolicyFIFO:
		return "FIFO"
	case PolicyRand:
		return "Rand"
	}
	return fmt.Sprintf("CachePolicy(%d)", uint8(p))
}

// ParseCachePolicy converts a policy name to a CachePolicy.
func ParseCachePolicy(s string) (CachePolicy, error) {
	switch s {
	case "LRU", "lru":
		return PolicyLRU, nil
	case "FIFO", "fifo":
		return PolicyFIFO, nil
	case "Rand", "rand", "random":
		return PolicyRand, nil
	}
	return 0, fmt.Errorf("unknown cache policy %q", s)
}

// DRAMTiming holds the GDDR3 timing parameters (in DRAM command cycles)
// from Table I.
type DRAMTiming struct {
	TRRD  int // activate-to-activate, different banks
	TWR   int // write recovery
	TRCD  int // activate-to-column
	TRAS  int // activate-to-precharge minimum
	TRP   int // precharge
	TRC   int // activate-to-activate, same bank
	TCL   int // column (CAS) latency
	TCDLR int // last-data-in to read command
}

// Config is the full GPU configuration.
type Config struct {
	// SM array (Table I: 14 clusters x 1 core).
	NumSMs int

	// Per-SM occupancy limits.
	MaxBlocksPerSM  int // Table I: 8
	MaxThreadsPerSM int // Table I: 1536
	RegsPerSM       int // Table I: 32768
	SmemPerSM       int // Table I: 16KB

	// Issue stage.
	NumSchedulers int         // Table I: 2
	Sched         SchedPolicy // Table I baseline: LRR
	TwoLevelGroup int         // active fetch-group size for SchedTwoLevel

	// Execution latencies (core cycles).
	SPLat   int // integer/float ALU pipeline depth
	SFULat  int // special function unit pipeline depth
	SmemLat int // scratchpad access latency

	// Scratchpad banking.
	SmemBanks int

	// RFBanks, when positive, enables the register-file bank-conflict
	// model of Fig. 3 (RF1..RF32 feeding the ALUs): an instruction
	// whose source registers map to the same bank (reg index mod
	// RFBanks) pays one extra issue-latency cycle per conflict. Off by
	// default (0) — GPGPU-Sim's PTX mode does not model it either.
	RFBanks int

	// L1 data cache, per SM (Table I: 16KB).
	L1Sets    int
	L1Ways    int
	L1LineSz  int
	L1HitLat  int
	L1MSHRs   int // distinct outstanding miss lines per SM
	L1Disable bool
	// L1Policy selects the L1 replacement policy — the paper's §VIII
	// plans to "study the effect of various cache replacement policies
	// on register sharing"; the ext-l1policy experiment does exactly
	// that.
	L1Policy CachePolicy

	// L2 cache, shared (Table I: 768KB across partitions).
	L2Partitions int
	L2Sets       int // per partition
	L2Ways       int
	L2HitLat     int

	// Interconnect (SM <-> memory partition), each direction.
	IcntLat int

	// CTALaunchLat is the delay between a block slot draining and its
	// replacement block's warps becoming runnable (CTA dispatch plus
	// init). Resource sharing hides this gap: the staged non-owner
	// block is already resident when its pair slot frees.
	CTALaunchLat int

	// DRAM (Table I: FR-FCFS, GDDR3 timings).
	DRAMBanksPerPartition int
	DRAMRowBytes          int
	DRAMTiming            DRAMTiming
	DRAMDataLat           int // data transfer cycles per 128B burst

	// Resource sharing (the paper's contribution).
	Sharing SharingMode
	// T is the sharing threshold t in (0,1]: each pair of shared blocks
	// is allocated (1+t)*Rtb resource units of which (1-t)*Rtb are the
	// shared portion. Sharing percentage = (1-t)*100.
	T float64
	// UnrollRegs enables the unrolling-and-reordering-of-register-
	// declarations pass (§IV-B) on kernels before launch.
	UnrollRegs bool
	// EarlyRegRelease enables the paper's §VIII future-work extension:
	// a warp's shared-register lock is released as soon as control flow
	// provably cannot touch the shared pool again (live-range analysis,
	// internal/opt/liveness), unblocking the partner warp before the
	// owner warp finishes.
	EarlyRegRelease bool
	// DynWarp enables dynamic warp execution (§IV-C): probabilistic
	// gating of memory instructions from non-owner warps.
	DynWarp       bool
	DynPeriod     int     // monitoring window in cycles (paper: 1000)
	DynStep       float64 // probability step p (paper: 0.1)
	Seed          uint64  // PRNG seed for the dyn gate
	MaxCycles     int64   // simulation safety valve; 0 = default
	TraceInterval int64   // 0 = no trace; else progress snapshots

	// InvariantStride, when positive, audits the simulator's internal
	// invariants (internal/invariant) every that many cycles during Run.
	// 0 disables auditing. The stride is part of the canonical
	// configuration: audited and unaudited runs cache separately even
	// though a clean audited run produces identical statistics.
	InvariantStride int64

	// ProgressWindow overrides the watchdog horizon: a run aborts when no
	// SM issues an instruction for this many consecutive cycles. 0 uses
	// the built-in default (500k cycles).
	ProgressWindow int64

	// Reference runs the engine's reference path: every scheduler
	// rebuilds its warp views and asks every warp every cycle (no cached
	// snapshots, incremental ready sets, issue cards or censuses), and
	// every memory partition is ticked every cycle (no next-work
	// horizons). The optimised path is proven byte-identical to it — it
	// is the oracle of the determinism tests and the escape hatch
	// GPUSHARE_REFERENCE=1 selects — so this is an engine mode, not a
	// simulation parameter: it is excluded from the canonical
	// configuration and the sim-v1 result fingerprint.
	Reference bool `json:"-"`

	// CheckpointStride, when positive, snapshots the full machine state
	// every that many cycles into the run's checkpoint sink, so a crashed
	// or preempted run can resume from the last checkpoint instead of
	// cycle 0. Checkpointing cannot change results — the snapshot is
	// taken at a cycle boundary and restore is bit-identical, proven by
	// the determinism gates — so like Reference it is an engine knob
	// excluded from the canonical configuration and the sim-v1 result
	// fingerprint: cached results are shared across stride settings.
	CheckpointStride int64 `json:"-"`
}

// Default returns the Table I baseline configuration.
func Default() Config {
	return Config{
		NumSMs:          14,
		MaxBlocksPerSM:  8,
		MaxThreadsPerSM: 1536,
		RegsPerSM:       32768,
		SmemPerSM:       16384,

		NumSchedulers: 2,
		Sched:         SchedLRR,
		TwoLevelGroup: 8,

		SPLat:   6,
		SFULat:  20,
		SmemLat: 24,

		SmemBanks: 32,

		L1Sets:   32, // 32 sets x 4 ways x 128B = 16KB
		L1Ways:   4,
		L1LineSz: 128,
		L1HitLat: 30,
		L1MSHRs:  32,

		L2Partitions: 6, // 6 x 128KB = 768KB
		L2Sets:       128,
		L2Ways:       8,
		L2HitLat:     160,

		IcntLat: 60,

		CTALaunchLat: 250,

		DRAMBanksPerPartition: 16,
		DRAMRowBytes:          2048,
		DRAMTiming: DRAMTiming{
			TRRD: 6, TWR: 12, TRCD: 12, TRAS: 28,
			TRP: 12, TRC: 40, TCL: 12, TCDLR: 5,
		},
		DRAMDataLat: 2,

		Sharing:   ShareNone,
		T:         0.1,
		DynPeriod: 1000,
		DynStep:   0.1,
		Seed:      0x9e3779b97f4a7c15,
	}
}

// CanonicalJSON serializes the configuration in a stable canonical
// form — declaration field order, no whitespace — so that two
// configurations serialize to the same bytes iff every parameter is
// equal. It is the config component of content-addressed simulation
// job keys (internal/runner).
func (c *Config) CanonicalJSON() ([]byte, error) {
	return json.Marshal(c)
}

// SharingPercent returns the sharing percentage (1-t)*100 for the
// configured threshold, or 0 when sharing is disabled.
func (c *Config) SharingPercent() float64 {
	if c.Sharing == ShareNone {
		return 0
	}
	return (1 - c.T) * 100
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("NumSMs must be positive, got %d", c.NumSMs)
	case c.MaxBlocksPerSM <= 0:
		return fmt.Errorf("MaxBlocksPerSM must be positive, got %d", c.MaxBlocksPerSM)
	case c.MaxThreadsPerSM <= 0:
		return fmt.Errorf("MaxThreadsPerSM must be positive, got %d", c.MaxThreadsPerSM)
	case c.RegsPerSM <= 0:
		return fmt.Errorf("RegsPerSM must be positive, got %d", c.RegsPerSM)
	case c.SmemPerSM < 0:
		return fmt.Errorf("SmemPerSM must be non-negative, got %d", c.SmemPerSM)
	case c.NumSchedulers <= 0:
		return fmt.Errorf("NumSchedulers must be positive, got %d", c.NumSchedulers)
	case c.SPLat <= 0 || c.SFULat <= 0 || c.SmemLat <= 0:
		return fmt.Errorf("execution latencies must be positive")
	case c.SmemBanks <= 0:
		return fmt.Errorf("SmemBanks must be positive, got %d", c.SmemBanks)
	case c.L1Sets <= 0 || c.L1Ways <= 0 || c.L1MSHRs <= 0:
		return fmt.Errorf("L1 geometry must be positive")
	case c.L1LineSz <= 0 || c.L1LineSz&(c.L1LineSz-1) != 0:
		return fmt.Errorf("L1LineSz must be a positive power of two, got %d", c.L1LineSz)
	case c.L2Partitions <= 0 || c.L2Sets <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("L2 geometry must be positive")
	case c.IcntLat < 0:
		return fmt.Errorf("IcntLat must be non-negative, got %d", c.IcntLat)
	case c.CTALaunchLat < 0:
		return fmt.Errorf("CTALaunchLat must be non-negative, got %d", c.CTALaunchLat)
	case c.DRAMBanksPerPartition <= 0 || c.DRAMRowBytes <= 0 || c.DRAMDataLat <= 0:
		return fmt.Errorf("DRAM geometry must be positive")
	case c.L1HitLat < 0 || c.L2HitLat < 0:
		return fmt.Errorf("cache hit latencies must be non-negative")
	case c.MaxCycles < 0:
		return fmt.Errorf("MaxCycles must be non-negative, got %d", c.MaxCycles)
	case c.TraceInterval < 0:
		return fmt.Errorf("TraceInterval must be non-negative, got %d", c.TraceInterval)
	case c.InvariantStride < 0:
		return fmt.Errorf("InvariantStride must be non-negative, got %d", c.InvariantStride)
	case c.ProgressWindow < 0:
		return fmt.Errorf("ProgressWindow must be non-negative, got %d", c.ProgressWindow)
	case c.CheckpointStride < 0:
		return fmt.Errorf("CheckpointStride must be non-negative, got %d", c.CheckpointStride)
	case c.Sched > SchedOWF:
		return fmt.Errorf("unknown scheduling policy %d", c.Sched)
	case c.Sharing > ShareScratchpad:
		return fmt.Errorf("unknown sharing mode %d", c.Sharing)
	case c.L1Policy > PolicyRand:
		return fmt.Errorf("unknown L1 cache policy %d", c.L1Policy)
	}
	if c.Sched == SchedTwoLevel && c.TwoLevelGroup <= 0 {
		return fmt.Errorf("TwoLevelGroup must be positive for the two-level scheduler, got %d", c.TwoLevelGroup)
	}
	if c.Sharing != ShareNone {
		// NaN fails every comparison, so check the valid range directly:
		// only values genuinely inside (0,1] pass.
		if !(c.T > 0 && c.T <= 1) {
			return fmt.Errorf("sharing threshold t must be in (0,1], got %g", c.T)
		}
	}
	if c.DynWarp {
		if c.DynPeriod <= 0 {
			return fmt.Errorf("DynPeriod must be positive, got %d", c.DynPeriod)
		}
		if !(c.DynStep > 0 && c.DynStep <= 1) {
			return fmt.Errorf("DynStep must be in (0,1], got %g", c.DynStep)
		}
	}
	return nil
}

// String summarizes the configuration for reports.
func (c *Config) String() string {
	s := fmt.Sprintf("%d SMs, %s sched, sharing=%s", c.NumSMs, c.Sched, c.Sharing)
	if c.Sharing != ShareNone {
		s += fmt.Sprintf(" (t=%.2f, %.0f%%)", c.T, c.SharingPercent())
		if c.UnrollRegs {
			s += " +unroll"
		}
		if c.DynWarp {
			s += " +dyn"
		}
	}
	return s
}
