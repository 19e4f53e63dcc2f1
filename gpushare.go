// Package gpushare is a cycle-level GPU simulator with SM resource
// sharing, reproducing "Improving GPU Performance Through Resource
// Sharing" (Jatala, Anantpur, Karkare — HPDC 2016).
//
// The simulator models a GPGPU-Sim-style GPU — SMs with dual warp
// schedulers and scoreboarded in-order issue, SIMT reconvergence stacks,
// per-SM L1 data caches, a partitioned L2, and FR-FCFS GDDR3 DRAM — and
// implements the paper's contribution on top: launching extra thread
// blocks per SM by letting pairs of blocks share the register file or
// the scratchpad, plus the three supporting optimizations (owner-warp-
// first scheduling, register-declaration unrolling, and dynamic warp
// execution).
//
// # Quick start
//
//	cfg := gpushare.DefaultConfig()
//	cfg.Sharing = gpushare.ShareRegisters
//	cfg.Sched = gpushare.SchedOWF
//	sim, err := gpushare.NewSimulator(cfg)
//	...
//	spec, _ := gpushare.WorkloadByName("hotspot")
//	inst := spec.Build(1)
//	inst.Setup(sim.Mem)
//	stats, err := sim.Run(inst.Launch)
//	fmt.Printf("IPC %.1f\n", stats.IPC())
//
// Custom kernels are written with the kernel builder (NewKernel) or
// assembled from text (ParseAssembly); see examples/ for complete
// programs and cmd/gexp for the paper's full evaluation.
package gpushare

import (
	"gpushare/internal/asm"
	"gpushare/internal/config"
	"gpushare/internal/core"
	"gpushare/internal/fault"
	"gpushare/internal/gpu"
	"gpushare/internal/harness"
	"gpushare/internal/hw"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
	"gpushare/internal/opt/unroll"
	"gpushare/internal/runner"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
	"gpushare/internal/tenancy"
	"gpushare/internal/workloads"
)

// Configuration.
type (
	// Config is the full GPU configuration; DefaultConfig reproduces
	// Table I of the paper.
	Config = config.Config
	// SchedPolicy selects the warp scheduler.
	SchedPolicy = config.SchedPolicy
	// SharingMode selects which resource thread-block pairs share.
	SharingMode = config.SharingMode
)

// Scheduling policies.
const (
	SchedLRR      = config.SchedLRR
	SchedGTO      = config.SchedGTO
	SchedTwoLevel = config.SchedTwoLevel
	SchedOWF      = config.SchedOWF
)

// Sharing modes.
const (
	ShareNone       = config.ShareNone
	ShareRegisters  = config.ShareRegisters
	ShareScratchpad = config.ShareScratchpad
)

// DefaultConfig returns the paper's Table I baseline configuration.
func DefaultConfig() Config { return config.Default() }

// Simulation.
type (
	// Simulator owns a GPU instance and its global memory.
	Simulator = gpu.Sim
	// GlobalMem is the functional global-memory backing store.
	GlobalMem = mem.Global
	// Stats aggregates one run's counters (IPC, stalls, caches, ...).
	Stats = stats.GPU
	// Occupancy is the per-SM thread-block occupancy plan, including
	// the paper's Eq. 4 sharing extension.
	Occupancy = core.Occupancy
)

// NewSimulator builds a simulator for the configuration.
func NewSimulator(cfg Config) (*Simulator, error) { return gpu.New(cfg) }

// Kernels.
type (
	// Kernel is a compiled GPU kernel.
	Kernel = kernel.Kernel
	// KernelBuilder assembles kernels programmatically.
	KernelBuilder = kernel.Builder
	// Launch pairs a kernel with its grid size and arguments.
	Launch = kernel.Launch
	// Operand is an instruction operand (register, immediate, special).
	Operand = isa.Operand
)

// NewKernel returns a builder for a kernel with the given name and
// threads per block.
func NewKernel(name string, blockDim int) *KernelBuilder {
	return kernel.NewBuilder(name, blockDim)
}

// Operand constructors, re-exported from the ISA.
var (
	Reg  = isa.Reg
	Imm  = isa.Imm
	ImmF = isa.ImmF
	Pred = isa.Pred
	Sreg = isa.Sreg
)

// Special registers.
const (
	SrTid     = isa.SrTid
	SrCtaid   = isa.SrCtaid
	SrNtid    = isa.SrNtid
	SrNctaid  = isa.SrNctaid
	SrLane    = isa.SrLane
	SrTidY    = isa.SrTidY
	SrCtaidY  = isa.SrCtaidY
	SrNtidY   = isa.SrNtidY
	SrNctaidY = isa.SrNctaidY
)

// Comparison operators for KernelBuilder.Setp.
const (
	CmpEQ  = isa.CmpEQ
	CmpNE  = isa.CmpNE
	CmpLT  = isa.CmpLT
	CmpLE  = isa.CmpLE
	CmpGT  = isa.CmpGT
	CmpGE  = isa.CmpGE
	CmpLTU = isa.CmpLTU
	CmpGEU = isa.CmpGEU
	CmpFLT = isa.CmpFLT
	CmpFGE = isa.CmpFGE
)

// ParseAssembly assembles a PTXPlus-flavoured text kernel.
func ParseAssembly(text string) (*Kernel, error) { return asm.Parse(text) }

// PrintAssembly disassembles a kernel to round-trippable text.
func PrintAssembly(k *Kernel) string { return asm.Print(k) }

// UnrollRegisters applies the paper's register-declaration reordering
// pass (§IV-B): registers are renumbered by first use so non-owner warps
// run as long as possible before touching the shared register pool.
func UnrollRegisters(k *Kernel) *Kernel { return unroll.Apply(k) }

// Benchmarks.
type (
	// Workload describes one of the paper's 19 benchmark applications.
	Workload = workloads.Spec
	// WorkloadInstance is a runnable workload: launch + input setup +
	// functional check.
	WorkloadInstance = workloads.Instance
)

// Workloads returns the paper's 19 benchmark proxies in paper order.
func Workloads() []*Workload { return workloads.All() }

// WorkloadByName looks a benchmark up by its paper name ("hotspot",
// "lavaMD", ...).
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Experiments.
type (
	// ExperimentSession renders the paper's experiments — each one a
	// declared table of cells — on the simulation farm, with memoized
	// results. Its Runner field is the farm's RunnerOptions (workers,
	// cache directory, verify, progress).
	ExperimentSession = harness.Session
	// ExperimentTable is one experiment's result in the paper's layout.
	ExperimentTable = harness.Table
)

// NewExperimentSession returns a session at the given grid scale
// (2 reproduces the repository's reference results; 1 is faster).
func NewExperimentSession(scale int) *ExperimentSession { return harness.NewSession(scale) }

// ExperimentIDs lists the available experiments (fig1a..fig12b,
// table5..table8, hw), one per table or figure in the paper, plus the
// ext-* sensitivity studies and ten-* multi-tenancy comparisons.
func ExperimentIDs() []string { return harness.IDs() }

// Multi-tenancy: several kernels sharing one simulated GPU under a
// tenancy policy (internal/tenancy). Build a TenancySpec, then either
// run launches directly via Simulator.RunMulti or submit it through a
// Job/SubmitRequest with the Tenancy field set.
type (
	// TenancySpec is the multi-kernel descriptor: which tenants run and
	// under which policy. It is cache-key-visible on runner jobs.
	TenancySpec = tenancy.Spec
	// TenantSpec names one tenant: a registry workload plus an optional
	// display name and grid scale.
	TenantSpec = tenancy.TenantSpec
	// TenancyPolicy selects how tenants share the GPU.
	TenancyPolicy = tenancy.Policy
	// PackingStrategy selects the bin-packing admission heuristic.
	PackingStrategy = tenancy.Packing
	// TenantStats is one tenant's slice of a multi-tenant run's
	// statistics (Stats.Tenants).
	TenantStats = stats.Tenant
)

// Tenancy policies.
const (
	// TenancySpatial partitions the SMs into disjoint per-tenant sets
	// (MIG analog): hard isolation, no resource contention.
	TenancySpatial = tenancy.Spatial
	// TenancyCoSched co-schedules blocks from different tenants on the
	// same SMs, within each SM's resources (MPS analog).
	TenancyCoSched = tenancy.CoSched
	// TenancyTimeSlice round-robins the whole GPU between tenants in
	// fixed cycle quanta with deterministic context switches.
	TenancyTimeSlice = tenancy.TimeSlice
)

// Packing strategies for co-scheduling admission.
const (
	PackFirstFit = tenancy.FirstFit
	PackBestFit  = tenancy.BestFit
	PackWorstFit = tenancy.WorstFit
)

// HardwareOverhead computes the Section V storage cost of both sharing
// mechanisms for a configuration.
func HardwareOverhead(cfg *Config) (register, scratchpad hw.Overhead) {
	return hw.ForConfig(cfg)
}

// Simulation farm: descriptor-addressed jobs with concurrent execution
// and content-addressed result caching (internal/runner).
type (
	// SimJob names one simulation by content: workload, configuration,
	// and grid scale. Its Key() is stable across processes.
	SimJob = runner.Job
	// SimRunner executes jobs on a worker pool with a two-tier
	// (memory + optional disk) result cache.
	SimRunner = runner.Runner
	// RunnerOptions configures a SimRunner (workers, cache directory,
	// timeout, retries).
	RunnerOptions = runner.Options
	// RunnerResult is one job's outcome: stats, cache tier, error.
	RunnerResult = runner.Result
	// RunnerCounters is a snapshot of a runner's cache/volume counters.
	RunnerCounters = runner.Counters
)

// Cache tiers a RunnerResult can come from.
const (
	ResultSimulated  = runner.Simulated
	ResultFromMemory = runner.FromMemory
	ResultFromDisk   = runner.FromDisk
)

// NewRunner builds a simulation runner. A zero Options value gives
// GOMAXPROCS workers and a memory-only cache.
func NewRunner(o RunnerOptions) *SimRunner { return runner.New(o) }

// Diagnostics. Every failure a simulation returns is a *SimError: a
// typed error carrying the failure kind, the cycle it was detected at,
// and — for hangs, watchdog trips, and invariant violations — a
// forensic dump of per-warp and memory-system state. Enable cycle-level
// auditing by setting Config.InvariantStride.
type (
	// SimError is the structured simulation error. Diagnosis() renders
	// the header plus the full forensic dump.
	SimError = simerr.SimError
	// ErrorKind classifies a SimError (config, launch, exec, invariant,
	// watchdog, max-cycles, ...).
	ErrorKind = simerr.Kind
	// ForensicDump is the snapshot attached to hang and invariant
	// errors: per-SM, per-warp state with stall reasons, plus memory
	// queue depths.
	ForensicDump = simerr.Dump
)

// Error kinds.
const (
	ErrConfig        = simerr.KindConfig
	ErrLaunch        = simerr.KindLaunch
	ErrUnschedulable = simerr.KindUnschedulable
	ErrExec          = simerr.KindExec
	ErrInvariant     = simerr.KindInvariant
	ErrWatchdog      = simerr.KindWatchdog
	ErrMaxCycles     = simerr.KindMaxCycles
	ErrCanceled      = simerr.KindCanceled
)

// AsSimError unwraps err to the *SimError in its chain, if any.
func AsSimError(err error) (*SimError, bool) { return simerr.As(err) }

// IsCanceled reports whether a simulation failure is a cancellation
// outcome (caller context ended, per-attempt timeout, daemon drain)
// rather than a real simulator failure. Cancellations are transient and
// resubmittable; they are never negative-cached by a SimRunner.
func IsCanceled(err error) bool { return runner.IsCanceled(err) }

// Fault injection (testing the simulator itself). A FaultPlan armed on
// Simulator.Faults deterministically corrupts one internal event — a
// dropped memory reply, a corrupted sharing-lease release, or a skipped
// barrier arrival — so harnesses can prove the invariant auditor and
// watchdog catch real defects rather than returning wrong results.
type (
	// FaultPlan injects its Nth opportunity for the configured fault
	// kind; the simulation must then fail with a SimError.
	FaultPlan = fault.Plan
	// FaultKind selects what the plan corrupts.
	FaultKind = fault.Kind
)

// Fault kinds.
const (
	FaultDropMemReply        = fault.DropMemReply
	FaultCorruptLeaseRelease = fault.CorruptLeaseRelease
	FaultSkipBarrierArrival  = fault.SkipBarrierArrival
)

// NewFaultPlan builds a deterministic injection plan: the fault fires at
// the plan's Nth opportunity, with Nth derived from seed in [1, spread].
func NewFaultPlan(kind FaultKind, seed uint64, spread int) *FaultPlan {
	return fault.NewPlan(kind, seed, spread)
}
