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

	"gpushare/internal/config"
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

// Sharing returns the sharing mode the paper evaluates the set under.
// Set-3 applications run either way without extra blocks; they are
// evaluated with register sharing.
func (s Set) Sharing() config.SharingMode {
	if s == Set2 {
		return config.ShareScratchpad
	}
	return config.ShareRegisters
}

// Spec describes one benchmark application.
type Spec struct {
	Name   string // paper name, e.g. "hotspot"
	Suite  string // benchmark suite, e.g. "RODINIA"
	Kernel string // kernel name from the paper's tables
	Set    Set

	// The footprint of Tables II/III. The builder reads it from here
	// (Spec.program); it has no second copy.
	BlockDim      int
	RegsPerThread int
	SmemPerBlock  int

	shape Shape
	build func(s *Spec, sh Shape, scale int) *Instance
}

// Shape is a proxy's declared problem shape: the sizes its program and
// inputs are built from that leave its Table II/III footprint alone. A
// field is zero where the proxy has no such size; every non-zero field
// is read by the proxy's builder. Sizes tied to the footprint (NW's
// 16x16 tile, the conv and SRAD scratchpad tiles) and properties of the
// program (ALU ops per load, prologue length) are not fields.
type Shape struct {
	// Grid is the number of thread blocks per unit of scale.
	Grid int
	// Trips is the per-thread trip count of the main loop, or the
	// element count of an unrolled body.
	Trips int
	// WorkingSet is the bytes of the data the main loop reads again and
	// again: the whole pool where warps share one, one block's where
	// each block has its own.
	WorkingSet int
	// Stride is the main loop's access stride in bytes: between the
	// regions successive warps walk, or between successive iterations'
	// loads.
	Stride int
}

// Shape returns the spec's declared shape. Builds use it and nothing
// else: no code outside this package can build a proxy at a shape it
// does not declare, so a workload name and scale identify the program.
func (s *Spec) Shape() Shape { return s.shape }

// Build instantiates the workload at its declared shape. scale
// multiplies the grid size (1 = the experiment default used by the
// harness; benchmarks use smaller scales).
func (s *Spec) Build(scale int) *Instance { return s.build(s, s.shape, scale) }

// program starts the spec's kernel under the given name with its
// declared footprint and params kernel arguments. The paper's kernel
// name (s.Kernel) is the usual name; the builders shared by two specs
// (conv, NW) name the program after the spec instead.
func (s *Spec) program(name string, params int) *kernel.Builder {
	return kernel.NewBuilder(name, s.BlockDim).Params(params).SetRegs(s.RegsPerThread).SetSmem(s.SmemPerBlock)
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

// An input element is drawn from one generator word; these are the
// common draws.
func anyWord(x uint64) uint32      { return uint32(x) }
func unitFloat(x uint64) float32   { return float32(x>>40) / (1 << 24) } // in [0, 1)
func below(n int, x uint64) uint32 { return uint32(x % uint64(n)) }      // in [0, n)

// newInstance returns the instance that launches k over grid blocks;
// the builder sets its Setup and Check.
func newInstance(k *kernel.Kernel, grid int) *Instance {
	return &Instance{Launch: &kernel.Launch{Kernel: k, GridDim: grid}}
}

// inputs is one Setup's allocator: every buffer it makes draws its
// host data (if any) from the seeded generator and is allocated in call
// order, so a Setup lists its buffers once, in launch-parameter order:
//
//	g := inputs{m: m, rng: 41}
//	inst.Launch.Params = []uint32{g.words(nodes, anyWord), g.output(n)}
type inputs struct {
	m   *mem.Global
	rng splitmix64
}

// words draws w (unless draw is nil: the builder drew it), allocates
// and writes it, and returns its address.
func (g *inputs) words(w []uint32, draw func(uint64) uint32) uint32 {
	if draw != nil {
		for i := range w {
			w[i] = draw(g.rng.next())
		}
	}
	addr := g.m.Alloc(4 * len(w))
	g.m.WriteWords(addr, w)
	return addr
}

// floats is words for float data.
func (g *inputs) floats(f []float32, draw func(uint64) float32) uint32 {
	if draw != nil {
		for i := range f {
			f[i] = draw(g.rng.next())
		}
	}
	addr := g.m.Alloc(4 * len(f))
	g.m.WriteFloats(addr, f)
	return addr
}

// output allocates an n-word output buffer and returns its address.
func (g *inputs) output(n int) uint32 { return g.m.Alloc(4 * n) }

// expect reports word i of the buffer at addr unless it holds want; the
// error names it as proxy's buf[i].
func expect(m *mem.Global, proxy, buf string, addr uint32, i int, want uint32) error {
	if got := m.Load32(addr + uint32(4*i)); got != want {
		return fmt.Errorf("%s %s[%d] = %#x, want %#x", proxy, buf, i, got, want)
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
