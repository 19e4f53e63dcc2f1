// Package stats collects and reports simulation counters: instructions,
// cycles, stall/idle breakdowns, cache and DRAM behaviour — the metrics
// the paper reports (IPC, stall cycles, idle cycles, L1/L2 misses).
package stats

import (
	"encoding/json"
	"fmt"
	"strings"
)

// SM holds per-SM counters.
type SM struct {
	Cycles       int64 // cycles the SM was active (kernel resident)
	WarpInstrs   int64 // warp instructions issued
	ThreadInstrs int64 // thread instructions (warp instrs x active lanes)
	StallCycles  int64 // no issue, but some warp had a blocked instruction
	IdleCycles   int64 // no issue and no warp had an issueable instruction

	// Issue-blocking reasons, counted per blocked warp-consideration.
	BlockScoreboard int64 // RAW/WAW hazard on a pending write
	BlockUnit       int64 // execution unit pipe busy
	BlockLockWait   int64 // waiting for a shared-resource lock
	BlockDynGate    int64 // memory instruction gated by dynamic warp exec
	BlockMemPipe    int64 // LSU queue full / MSHRs exhausted

	BlocksLaunched  int64 // thread blocks dispatched to this SM
	BlocksShared    int64 // blocks launched in sharing mode
	MaxResidentTB   int   // peak resident thread blocks
	OwnershipXfers  int64 // pair ownership transfers
	EarlyRegRelease int64 // shared-register locks released by liveness (§VIII ext.)
	LockAcquires    int64 // shared-resource lock acquisitions
	BarrierWaits    int64 // warp-cycles spent waiting at barriers
	DynProbFinal    float64
	SharedRegWaits  int64 // warp stalls on shared registers
	SharedMemWaits  int64 // warp stalls on shared scratchpad
	BankConflicts   int64 // extra scratchpad cycles from bank conflicts
	CoalescedAccess int64 // global-memory line transactions generated
}

// Tenant holds per-tenant counters for a multi-kernel run
// (internal/tenancy): enough to compute a tenant's IPC, stall
// breakdown, and achieved occupancy independently of its co-residents.
// Single-kernel runs carry no Tenant entries.
type Tenant struct {
	Name     string // tenant label (defaults to the workload name)
	Workload string // workload registry name, when known

	// Cycles is the tenant's makespan: the global cycle at which its
	// last thread block drained. The whole-run g.Cycles divided into
	// per-tenant ThreadInstrs overstates slowdown for tenants that
	// finish early; ThreadInstrs/Cycles here is the tenant's own IPC.
	Cycles int64

	WarpInstrs   int64
	ThreadInstrs int64

	// Issue-blocking reasons, counted per blocked warp-consideration of
	// this tenant's warps (same semantics as the SM counters).
	BlockScoreboard int64
	BlockUnit       int64
	BlockLockWait   int64
	BlockDynGate    int64
	BlockMemPipe    int64

	BlocksLaunched  int64
	BlocksCompleted int64
	BarrierWaits    int64

	MaxResidentTB int // peak live blocks, summed over hosting SMs
	ResidentSlots int // block slots granted by the placement, summed over SMs
	SMs           int // number of SMs hosting the tenant
}

// IPC returns the tenant's thread instructions per cycle of its own
// makespan.
func (t *Tenant) IPC() float64 {
	if t.Cycles == 0 {
		return 0
	}
	return float64(t.ThreadInstrs) / float64(t.Cycles)
}

// AddCounters accumulates another Tenant's event counters into t.
// Identity fields, MaxResidentTB, ResidentSlots, and SMs are left
// alone (they are not additive across SMs or slices); Cycles keeps the
// maximum. Used to sum one tenant's per-SM and per-slice counters into
// its run total.
func (t *Tenant) AddCounters(o *Tenant) {
	if o.Cycles > t.Cycles {
		t.Cycles = o.Cycles
	}
	t.WarpInstrs += o.WarpInstrs
	t.ThreadInstrs += o.ThreadInstrs
	t.BlockScoreboard += o.BlockScoreboard
	t.BlockUnit += o.BlockUnit
	t.BlockLockWait += o.BlockLockWait
	t.BlockDynGate += o.BlockDynGate
	t.BlockMemPipe += o.BlockMemPipe
	t.BlocksLaunched += o.BlocksLaunched
	t.BlocksCompleted += o.BlocksCompleted
	t.BarrierWaits += o.BarrierWaits
}

// Cache holds hit/miss counters for one cache.
type Cache struct {
	Accesses int64
	Hits     int64
	Misses   int64
	MSHRMerg int64 // misses merged into an outstanding line request
	Evicts   int64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Add accumulates other into c.
func (c *Cache) Add(other *Cache) {
	c.Accesses += other.Accesses
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.MSHRMerg += other.MSHRMerg
	c.Evicts += other.Evicts
}

// DRAM holds DRAM counters for one partition.
type DRAM struct {
	Reads     int64
	Writes    int64
	RowHits   int64
	RowMisses int64
}

// Add accumulates other into d.
func (d *DRAM) Add(other *DRAM) {
	d.Reads += other.Reads
	d.Writes += other.Writes
	d.RowHits += other.RowHits
	d.RowMisses += other.RowMisses
}

// MemPartition is one memory partition's breakdown: its own L2 and
// DRAM counters plus the busy/idle split and queue high-water marks.
// Every counter is event-derived, so the values are identical whether
// the simulator ticked idle memory cycles or skipped them.
type MemPartition struct {
	L2   Cache
	DRAM DRAM

	BusyCycles    int64 // cycles the partition processed at least one event
	DRAMQueuePeak int   // high-water mark of DRAM queued + in-flight requests
	MSHRPeak      int   // high-water mark of outstanding L2-MSHR lines
	PendingPeak   int   // high-water mark of L2 hits serving their hit latency
}

// GPU aggregates the whole run.
type GPU struct {
	Cycles int64 // GPU cycles from launch to grid completion

	SMs  []SM
	L1   Cache // summed over SMs
	L2   Cache // summed over partitions
	DRAM DRAM  // summed over partitions

	ResidentTB int // resident thread blocks per SM at steady state

	// Tenants carries per-tenant breakdowns for multi-kernel runs
	// (internal/tenancy), in the run's tenant order. Nil for
	// single-kernel runs — the omitempty tag keeps their canonical
	// encoding byte-identical to pre-tenancy revisions, so existing
	// cache entries and determinism witnesses stay valid.
	Tenants []Tenant `json:",omitempty"`

	// MemParts carries the per-partition memory breakdown, in partition
	// order. The omitempty tag keeps serializations produced by older
	// revisions decodable and the canonical encoding stable for runs
	// that never collected it.
	MemParts []MemPartition `json:",omitempty"`
}

// TotalThreadInstrs sums thread instructions over all SMs.
func (g *GPU) TotalThreadInstrs() int64 {
	var n int64
	for i := range g.SMs {
		n += g.SMs[i].ThreadInstrs
	}
	return n
}

// TotalWarpInstrs sums warp instructions over all SMs.
func (g *GPU) TotalWarpInstrs() int64 {
	var n int64
	for i := range g.SMs {
		n += g.SMs[i].WarpInstrs
	}
	return n
}

// IPC returns thread instructions per GPU cycle — the paper's headline
// metric (its IPC counts per-thread instructions; e.g. ~500 for hotspot
// on a 14-SM, dual-issue, 32-lane configuration).
func (g *GPU) IPC() float64 {
	if g.Cycles == 0 {
		return 0
	}
	return float64(g.TotalThreadInstrs()) / float64(g.Cycles)
}

// StallCycles sums stall cycles over all SMs.
func (g *GPU) StallCycles() int64 {
	var n int64
	for i := range g.SMs {
		n += g.SMs[i].StallCycles
	}
	return n
}

// IdleCycles sums idle cycles over all SMs.
func (g *GPU) IdleCycles() int64 {
	var n int64
	for i := range g.SMs {
		n += g.SMs[i].IdleCycles
	}
	return n
}

// EncodeJSON returns the canonical serialization of the run: identical
// stats always encode to identical bytes (Go's json package emits
// struct fields in declaration order with a fixed number format), so
// the encoding doubles as the payload of content-addressed result
// caches and as the byte-level equality witness in determinism tests.
func (g *GPU) EncodeJSON() ([]byte, error) {
	return json.Marshal(g)
}

// DecodeJSON parses a serialization produced by EncodeJSON.
func DecodeJSON(b []byte) (*GPU, error) {
	g := &GPU{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("stats: decode: %w", err)
	}
	return g, nil
}

// Merge accumulates another time slice's counters into g (the
// time-slice tenancy bank): cycles and the L1/L2/DRAM counters sum,
// per-SM counters sum index-wise (the SM slice grows to cover other's),
// and the resident-block peaks keep the maximum. Per-tenant and
// per-partition breakdowns are not merged; a slice carries neither.
// DynProbFinal is not merged either: a time-slice run rejects DynWarp,
// like every multi-tenant run, so it reports DynProbFinal 0.
func (g *GPU) Merge(other *GPU) {
	g.Cycles += other.Cycles
	for len(g.SMs) < len(other.SMs) {
		g.SMs = append(g.SMs, SM{})
	}
	for i := range other.SMs {
		o := &other.SMs[i]
		m := &g.SMs[i]
		m.Cycles += o.Cycles
		m.WarpInstrs += o.WarpInstrs
		m.ThreadInstrs += o.ThreadInstrs
		m.StallCycles += o.StallCycles
		m.IdleCycles += o.IdleCycles
		m.BlockScoreboard += o.BlockScoreboard
		m.BlockUnit += o.BlockUnit
		m.BlockLockWait += o.BlockLockWait
		m.BlockDynGate += o.BlockDynGate
		m.BlockMemPipe += o.BlockMemPipe
		m.BlocksLaunched += o.BlocksLaunched
		m.BlocksShared += o.BlocksShared
		if o.MaxResidentTB > m.MaxResidentTB {
			m.MaxResidentTB = o.MaxResidentTB
		}
		m.OwnershipXfers += o.OwnershipXfers
		m.EarlyRegRelease += o.EarlyRegRelease
		m.LockAcquires += o.LockAcquires
		m.BarrierWaits += o.BarrierWaits
		m.SharedRegWaits += o.SharedRegWaits
		m.SharedMemWaits += o.SharedMemWaits
		m.BankConflicts += o.BankConflicts
		m.CoalescedAccess += o.CoalescedAccess
	}
	g.L1.Add(&other.L1)
	g.L2.Add(&other.L2)
	g.DRAM.Add(&other.DRAM)
	if other.ResidentTB > g.ResidentTB {
		g.ResidentTB = other.ResidentTB
	}
}

// PercentChange returns (new-old)/old*100, or 0 when old is 0.
func PercentChange(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// PercentDecrease returns (old-new)/old*100, or 0 when old is 0.
func PercentDecrease(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (old - new) / old * 100
}

// Report renders a human-readable run summary.
func (g *GPU) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %12d\n", g.Cycles)
	fmt.Fprintf(&b, "warp instructions %12d\n", g.TotalWarpInstrs())
	fmt.Fprintf(&b, "thread instrs     %12d\n", g.TotalThreadInstrs())
	fmt.Fprintf(&b, "IPC               %12.2f\n", g.IPC())
	fmt.Fprintf(&b, "stall cycles      %12d\n", g.StallCycles())
	fmt.Fprintf(&b, "idle cycles       %12d\n", g.IdleCycles())
	fmt.Fprintf(&b, "resident TB/SM    %12d\n", g.ResidentTB)
	fmt.Fprintf(&b, "L1  acc/hit/miss  %8d %8d %8d (%.1f%% miss)\n",
		g.L1.Accesses, g.L1.Hits, g.L1.Misses, g.L1.MissRate()*100)
	fmt.Fprintf(&b, "L2  acc/hit/miss  %8d %8d %8d (%.1f%% miss)\n",
		g.L2.Accesses, g.L2.Hits, g.L2.Misses, g.L2.MissRate()*100)
	fmt.Fprintf(&b, "DRAM rd/wr        %8d %8d  row hit %.1f%%\n",
		g.DRAM.Reads, g.DRAM.Writes, g.DRAMRowHitRate()*100)
	var locks, xfers int64
	for i := range g.SMs {
		locks += g.SMs[i].LockAcquires
		xfers += g.SMs[i].OwnershipXfers
	}
	if locks > 0 || xfers > 0 {
		fmt.Fprintf(&b, "lock acquires     %12d\n", locks)
		fmt.Fprintf(&b, "ownership xfers   %12d\n", xfers)
	}
	return b.String()
}

// MemReport renders the per-partition memory breakdown (row locality,
// busy share of the run, queue high-water marks), or "" when the run
// carried none. gsim prints it under -v.
func (g *GPU) MemReport() string {
	if len(g.MemParts) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "memory partitions (busy share of %d cycles)\n", g.Cycles)
	fmt.Fprintf(&b, "  part  busy%%   row hit%%   L2 miss%%   dramQ^  mshr^  pend^\n")
	for i := range g.MemParts {
		p := &g.MemParts[i]
		busyPct := 0.0
		if g.Cycles > 0 {
			busyPct = float64(p.BusyCycles) / float64(g.Cycles) * 100
		}
		rowPct := 0.0
		if cmds := p.DRAM.RowHits + p.DRAM.RowMisses; cmds > 0 {
			rowPct = float64(p.DRAM.RowHits) / float64(cmds) * 100
		}
		fmt.Fprintf(&b, "  %4d  %5.1f  %9.1f  %9.1f  %6d  %5d  %5d\n",
			i, busyPct, rowPct, p.L2.MissRate()*100,
			p.DRAMQueuePeak, p.MSHRPeak, p.PendingPeak)
	}
	return b.String()
}

// DRAMRowHitRate returns the row-buffer hit rate.
func (g *GPU) DRAMRowHitRate() float64 {
	total := g.DRAM.RowHits + g.DRAM.RowMisses
	if total == 0 {
		return 0
	}
	return float64(g.DRAM.RowHits) / float64(total)
}
