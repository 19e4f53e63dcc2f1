// Package kernel represents GPU kernels: a flat instruction stream plus the
// resource metadata that drives thread-block occupancy (threads per block,
// registers per thread, scratchpad bytes per block). It also provides a
// builder DSL used by the benchmark proxies and a validator that catches
// malformed control flow before simulation.
package kernel

import (
	"fmt"

	"gpushare/internal/isa"
)

// WarpSize is the number of threads per warp, fixed at 32 as on NVIDIA
// hardware and in GPGPU-Sim.
const WarpSize = isa.Lanes

// MaxPredRegs is the number of predicate registers per thread.
const MaxPredRegs = 8

// Kernel is a compiled GPU kernel.
type Kernel struct {
	Name   string
	Instrs []isa.Instr

	// BlockDim is the block's x dimension in threads; BlockDimY its y
	// dimension (0 and 1 both mean one-dimensional). Threads linearize
	// row-major: linear = y*BlockDim + x.
	BlockDim  int
	BlockDimY int

	// RegsPerThread is the architectural register footprint per thread
	// used for occupancy; it may exceed the highest register actually
	// referenced (compilers pad allocations), but never be below it.
	RegsPerThread int

	// SmemPerBlock is the scratchpad (shared memory) footprint in bytes
	// per thread block.
	SmemPerBlock int

	// NumParams is the number of 32-bit kernel arguments read via LDP.
	NumParams int
}

// Threads returns the total threads per block across both dimensions.
func (k *Kernel) Threads() int {
	if k.BlockDimY > 1 {
		return k.BlockDim * k.BlockDimY
	}
	return k.BlockDim
}

// WarpsPerBlock returns the number of warps a thread block occupies.
func (k *Kernel) WarpsPerBlock() int {
	return (k.Threads() + WarpSize - 1) / WarpSize
}

// RegsPerBlock returns the register-file footprint of one thread block in
// registers. Like GPGPU-Sim, registers are allocated at warp granularity:
// a 508-thread block occupies 16 full warps of registers.
func (k *Kernel) RegsPerBlock() int {
	return k.WarpsPerBlock() * WarpSize * k.RegsPerThread
}

// MaxUsedReg returns the highest register index referenced by any
// instruction, or -1 for a register-free kernel.
func (k *Kernel) MaxUsedReg() int {
	maxIdx := -1
	for i := range k.Instrs {
		if r := k.Instrs[i].MaxReg(); r > maxIdx {
			maxIdx = r
		}
	}
	return maxIdx
}

// Validate checks structural invariants: opcodes and operands are well
// formed, branch targets and reconvergence points are in range, register
// and predicate indices fit the declared footprints, and every parameter
// index is within NumParams.
func (k *Kernel) Validate() error {
	if k.BlockDim <= 0 {
		return fmt.Errorf("kernel %s: BlockDim must be positive, got %d", k.Name, k.BlockDim)
	}
	if k.BlockDimY < 0 {
		return fmt.Errorf("kernel %s: BlockDimY must be non-negative, got %d", k.Name, k.BlockDimY)
	}
	if k.SmemPerBlock < 0 {
		return fmt.Errorf("kernel %s: SmemPerBlock must be non-negative, got %d", k.Name, k.SmemPerBlock)
	}
	if k.NumParams < 0 {
		return fmt.Errorf("kernel %s: NumParams must be non-negative, got %d", k.Name, k.NumParams)
	}
	if len(k.Instrs) == 0 {
		return fmt.Errorf("kernel %s: empty instruction stream", k.Name)
	}
	if used := k.MaxUsedReg(); used >= k.RegsPerThread {
		return fmt.Errorf("kernel %s: register r%d used but only %d registers declared",
			k.Name, used, k.RegsPerThread)
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		if err := k.validateInstr(pc, in); err != nil {
			return err
		}
	}
	return nil
}

func (k *Kernel) validateInstr(pc int, in *isa.Instr) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("kernel %s, pc %d (%s): %s", k.Name, pc, in, fmt.Sprintf(format, args...))
	}
	if !in.Op.Valid() {
		return fail("invalid opcode %d", uint8(in.Op))
	}
	if in.Guarded() && (in.GuardPred < 0 || int(in.GuardPred) >= MaxPredRegs) {
		return fail("guard predicate p%d out of range", in.GuardPred)
	}
	for _, o := range [...]isa.Operand{in.Dst, in.A, in.B, in.C} {
		switch o.Kind {
		case isa.OpPred:
			if int(o.Reg) >= MaxPredRegs {
				return fail("predicate p%d out of range", o.Reg)
			}
		case isa.OpSpecial:
			if !o.Spec.Valid() {
				return fail("invalid special register %d", uint8(o.Spec))
			}
		}
	}
	switch in.Op {
	case isa.BRA:
		if in.Target < 0 || in.Target >= len(k.Instrs) {
			return fail("branch target %d out of range [0,%d)", in.Target, len(k.Instrs))
		}
		if in.Reconv < 0 || in.Reconv > len(k.Instrs) {
			return fail("reconvergence point %d out of range [0,%d]", in.Reconv, len(k.Instrs))
		}
	case isa.SETP:
		if in.Dst.Kind != isa.OpPred {
			return fail("SETP destination must be a predicate register")
		}
		if !in.Cmp.Valid() {
			return fail("invalid comparison %d", uint8(in.Cmp))
		}
	case isa.SELP:
		if in.C.Kind != isa.OpPred {
			return fail("SELP selector must be a predicate register")
		}
	case isa.LDP:
		if in.Off < 0 || int(in.Off) >= k.NumParams {
			return fail("parameter index %d out of range [0,%d)", in.Off, k.NumParams)
		}
	case isa.LDG:
		// The SM tracks an in-flight global load by its destination
		// register.
		if in.Dst.Kind != isa.OpReg {
			return fail("global load destination must be a general-purpose register")
		}
	case isa.LDS, isa.STS:
		if k.SmemPerBlock == 0 {
			return fail("scratchpad access in kernel with no scratchpad allocation")
		}
	}
	if in.Dst.Kind == isa.OpPred && in.Op != isa.SETP {
		return fail("only SETP may write a predicate register")
	}
	return nil
}

// Launch pairs a kernel with a grid configuration and its arguments.
type Launch struct {
	Kernel   *Kernel
	GridDim  int      // grid x dimension in blocks
	GridDimY int      // grid y dimension (0 and 1 both mean 1D)
	Params   []uint32 // kernel arguments, read by LDP
}

// Blocks returns the total thread blocks across both grid dimensions.
func (l *Launch) Blocks() int {
	if l.GridDimY > 1 {
		return l.GridDim * l.GridDimY
	}
	return l.GridDim
}

// Validate checks the launch configuration against the kernel.
func (l *Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("launch has no kernel")
	}
	if err := l.Kernel.Validate(); err != nil {
		return err
	}
	if l.GridDim <= 0 {
		return fmt.Errorf("launch of %s: GridDim must be positive, got %d", l.Kernel.Name, l.GridDim)
	}
	if l.GridDimY < 0 {
		return fmt.Errorf("launch of %s: GridDimY must be non-negative, got %d", l.Kernel.Name, l.GridDimY)
	}
	if len(l.Params) < l.Kernel.NumParams {
		return fmt.Errorf("launch of %s: kernel reads %d params, launch provides %d",
			l.Kernel.Name, l.Kernel.NumParams, len(l.Params))
	}
	return nil
}

// TotalThreads returns the number of threads in the grid.
func (l *Launch) TotalThreads() int { return l.Blocks() * l.Kernel.Threads() }
