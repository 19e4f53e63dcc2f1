// Package workloads provides synthetic proxies for the 19 benchmark
// applications the paper evaluates (Tables II, III, IV). Each proxy
// matches its application's occupancy-relevant resource footprint exactly
// — threads per block, registers per thread, scratchpad bytes per block —
// and is written to exhibit the qualitative execution character the paper
// describes (compute-bound vs. cache-sensitive, divergent vs. regular,
// barrier placement relative to shared-scratchpad accesses, register
// declaration order).
//
// The proxies are deterministic: inputs come from a seeded generator and
// most workloads carry a functional self-check that recomputes the
// expected output on the host.
package workloads

import (
	"fmt"
	"math"

	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// Set identifies which benchmark set a workload belongs to (§VI-A).
type Set int

// Benchmark sets.
const (
	Set1 Set = 1 // limited by registers (Table II)
	Set2 Set = 2 // limited by scratchpad memory (Table III)
	Set3 Set = 3 // limited by threads or blocks (Table IV)
)

// Spec describes one benchmark application.
type Spec struct {
	Name   string // paper name, e.g. "hotspot"
	Suite  string // benchmark suite, e.g. "RODINIA"
	Kernel string // kernel name from the paper's tables
	Set    Set

	BlockDim      int
	RegsPerThread int
	SmemPerBlock  int

	// Build instantiates the workload. scale multiplies the grid size
	// (1 = the experiment default used by the harness; benchmarks use
	// smaller scales).
	Build func(scale int) *Instance
}

// Instance is a runnable workload: a launch plus input setup and an
// optional functional check.
type Instance struct {
	Launch *kernel.Launch
	// Setup allocates and initializes inputs in global memory and fills
	// Launch.Params. It must be called exactly once before running.
	Setup func(m *mem.Global)
	// Check verifies functional outputs after the run; nil when the
	// workload has no host-side reference.
	Check func(m *mem.Global) error
}

var registry []*Spec

// extras are runnable specs outside the paper's 19-application registry
// (microbenchmarks). They are excluded from All/BySet but resolvable by
// name, so descriptor-addressed job runners (internal/runner) can
// rebuild any workload a harness experiment references.
var extras []*Spec

func register(s *Spec) *Spec {
	registry = append(registry, s)
	return s
}

// All returns every registered workload in registration (paper) order.
func All() []*Spec { return registry }

// BySet returns the workloads of one benchmark set, in paper order.
func BySet(s Set) []*Spec {
	var out []*Spec
	for _, w := range registry {
		if w.Set == s {
			out = append(out, w)
		}
	}
	return out
}

// ByName looks a workload up by its paper name. Extra specs outside
// the paper registry (microbenchmarks) resolve too.
func ByName(name string) (*Spec, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range extras {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 is the deterministic input generator.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nextN returns a value in [0, n).
func (s *splitmix64) nextN(n int) uint32 { return uint32(s.next() % uint64(n)) }

// nextFloat returns a float32 in [0, 1).
func (s *splitmix64) nextFloat() float32 {
	return float32(s.next()>>40) / (1 << 24)
}

// checkWords compares n output words against want, reporting the first
// mismatch.
func checkWords(m *mem.Global, addr uint32, want []uint32, what string) error {
	for i, w := range want {
		if got := m.Load32(addr + uint32(4*i)); got != w {
			return fmt.Errorf("%s[%d] = %#x, want %#x", what, i, got, w)
		}
	}
	return nil
}

func f32bits(v float32) uint32 {
	return mem.F32Bits(v)
}

// exp2f32 mirrors the executor's FEXP semantics exactly.
func exp2f32(x float32) float32 {
	return float32(math.Exp2(float64(x)))
}

// sinf32 mirrors the executor's FSIN semantics exactly.
func sinf32(x float32) float32 {
	return float32(math.Sin(float64(x)))
}

// rcpf32 mirrors the executor's FRCP semantics exactly.
func rcpf32(x float32) float32 { return 1 / x }
