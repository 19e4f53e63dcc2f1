package warp

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gpushare/internal/isa"
	"gpushare/internal/kernel"
)

// GlobalMem is the interface the executor uses to touch global memory.
// The simulator's paged backing store implements it.
type GlobalMem interface {
	Load32(addr uint32) uint32
	Store32(addr uint32, v uint32)
}

// Env supplies everything outside the warp needed to execute: block
// coordinates, kernel arguments, and the memory spaces. The y dimensions
// default to 1 (a zero value is treated as 1).
type Env struct {
	CtaID     int // block x-index in the grid
	CtaIDY    int // block y-index
	GridDim   int // grid x dimension in blocks
	GridDimY  int
	BlockDim  int // block x dimension in threads
	BlockDimY int
	Params    []uint32
	Gmem      GlobalMem
	Smem      []byte // this block's scratchpad
}

// dimY returns the effective y block dimension.
func (e *Env) dimY() int {
	if e.BlockDimY > 1 {
		return e.BlockDimY
	}
	return 1
}

// ResultKind classifies what Execute did.
type ResultKind uint8

// Execute result kinds.
const (
	ResNormal  ResultKind = iota // ALU/memory instruction, PC advanced
	ResBarrier                   // warp arrived at a barrier
	ResExit                      // some or all lanes exited
)

// Result describes one executed instruction for the timing model.
type Result struct {
	Kind   ResultKind
	Active uint32 // lanes that actually executed (guard applied)

	// For global memory instructions: per-lane byte addresses, valid for
	// lanes in Active. The timing model coalesces these into cache-line
	// transactions.
	GlobalAddrs *isa.Row
	// For scratchpad instructions: per-lane byte addresses within the
	// block's scratchpad, used for bank-conflict modelling and the
	// shared-region access check (Fig. 4 of the paper).
	SharedAddrs *isa.Row
	IsStore     bool

	Finished bool // warp has no live lanes left
}

// State is one warp's execution state.
type State struct {
	ID        int   // hardware warp slot within the SM
	DynID     int64 // dynamic (launch-order) warp id; lower = older
	BlockSlot int   // hardware block slot within the SM
	WarpInCta int   // warp index within its thread block; set by BindBlock

	Lanes uint32 // lanes that exist (last warp of a block may be partial)

	simt  SIMT
	regs  []uint32 // regsPerThread rows of 32 lanes: register r is regs[r*32 : r*32+32]
	preds [kernel.MaxPredRegs]uint32

	// specials holds every special register as a row, so a decoded
	// operand reads %tid or %ctaid exactly as it reads a register.
	// BindBlock fills it; the values are fixed for the block's lifetime.
	specials [isa.NumSpecials]isa.Row

	// Scratch address row handed out via Result.GlobalAddrs /
	// SharedAddrs when the caller supplied none. The core consumes a
	// Result before this warp executes again, so reusing it is safe.
	// Lanes outside Result.Active are not meaningful.
	addrs isa.Row
}

// NewState allocates warp state for a kernel with nregs registers per
// thread. lanes is the existence mask. The special registers read as
// zero until BindBlock.
func NewState(nregs int, lanes uint32) *State {
	return &State{
		Lanes: lanes,
		simt:  NewSIMT(lanes),
		regs:  make([]uint32, nregs*kernel.WarpSize),
	}
}

// Reset reinitializes the warp for a fresh block launch, reusing the
// register backing store.
func (w *State) Reset(lanes uint32) {
	w.Lanes = lanes
	w.simt = NewSIMT(lanes)
	clear(w.regs)
	clear(w.preds[:])
}

// BindBlock places the warp at index warpInCta of the block env
// describes and fills the special-register rows: the block constants
// (%ctaid, %ntid, %nctaid and their y forms) as broadcast rows, the
// per-warp ones (%tid, %tid.y, %lane, %warpid) per lane. The SM calls it
// at every block launch and after restoring a checkpoint.
func (w *State) BindBlock(env *Env, warpInCta int) {
	w.WarpInCta = warpInCta
	gridY := 1
	if env.GridDimY > 1 {
		gridY = env.GridDimY
	}
	fillRow(&w.specials[isa.SrCtaid], uint32(env.CtaID))
	fillRow(&w.specials[isa.SrCtaidY], uint32(env.CtaIDY))
	fillRow(&w.specials[isa.SrNtid], uint32(env.BlockDim))
	fillRow(&w.specials[isa.SrNtidY], uint32(env.dimY()))
	fillRow(&w.specials[isa.SrNctaid], uint32(env.GridDim))
	fillRow(&w.specials[isa.SrNctaidY], uint32(gridY))
	fillRow(&w.specials[isa.SrWarpCta], uint32(warpInCta))
	tid, tidY := &w.specials[isa.SrTid], &w.specials[isa.SrTidY]
	for lane := 0; lane < kernel.WarpSize; lane++ {
		t := warpInCta*kernel.WarpSize + lane
		w.specials[isa.SrLane][lane] = uint32(lane)
		tid[lane], tidY[lane] = uint32(t), 0
		if env.BlockDim > 0 {
			tidY[lane] = uint32(t / env.BlockDim)
			if env.dimY() > 1 {
				tid[lane] = uint32(t % env.BlockDim)
			}
		}
	}
}

func fillRow(r *isa.Row, v uint32) {
	for i := range r {
		r[i] = v
	}
}

// Finished reports whether every lane has exited.
func (w *State) Finished() bool { return w.simt.Done() }

// SIMTDepth returns the reconvergence-stack depth (0 once finished).
func (w *State) SIMTDepth() int { return w.simt.Depth() }

// AuditSIMT checks the warp's reconvergence stack: entries must be
// well nested (each child mask a subset of its parent, siblings
// disjoint) and no active lane may lie outside the existence mask.
func (w *State) AuditSIMT() error {
	if w.simt.Done() {
		return nil
	}
	if !w.simt.WellFormed() {
		return fmt.Errorf("warp %d: SIMT stack not well nested (depth %d)", w.ID, w.simt.Depth())
	}
	if ghost := w.simt.ActiveUnion() &^ w.Lanes; ghost != 0 {
		return fmt.Errorf("warp %d: SIMT stack activates non-existent lanes %#x", w.ID, ghost)
	}
	return nil
}

// PC returns the current PC and active mask; ok is false once finished.
func (w *State) PC() (pc int, mask uint32, ok bool) {
	if w.simt.Done() {
		return 0, 0, false
	}
	pc, mask = w.simt.Top()
	return pc, mask, true
}

// Reg returns the value of register r in the given lane.
func (w *State) Reg(r, lane int) uint32 { return w.regs[r*kernel.WarpSize+lane] }

// SetReg sets register r in the given lane.
func (w *State) SetReg(r, lane int, v uint32) { w.regs[r*kernel.WarpSize+lane] = v }

// Pred returns the mask of predicate register p.
func (w *State) Pred(p int) uint32 { return w.preds[p] }

// guardMask returns the lanes of mask that pass the instruction's guard.
func (w *State) guardMask(op *Op, mask uint32) uint32 {
	if op.guard == isa.NoPred {
		return mask
	}
	pm := w.preds[op.guard]
	if op.guardNeg {
		pm = ^pm
	}
	return mask & pm
}

// row resolves a decoded operand to the 32 lane values it reads.
func (w *State) row(o *operand) *isa.Row {
	switch {
	case o.imm != nil:
		return o.imm
	case o.special:
		return &w.specials[o.idx]
	}
	return w.regRow(int(o.idx))
}

// regRow returns register r as a row of the register file.
func (w *State) regRow(r int) *isa.Row {
	return (*isa.Row)(w.regs[r*kernel.WarpSize:])
}

// EffAddrs computes the effective byte address of every lane of a
// memory instruction into addrs without executing it, and returns the
// lanes that would execute after applying the guard. The SM issue stage
// uses it for the scratchpad shared-region check and then hands the
// same addresses to Execute.
func (w *State) EffAddrs(op *Op, addrs *isa.Row) uint32 {
	_, mask := w.simt.Top()
	base := w.row(&op.a)
	for i := range addrs {
		addrs[i] = base[i] + op.off
	}
	return w.guardMask(op, mask)
}

// Execute functionally executes op, the decoded instruction at the
// warp's current PC, and advances control flow. The caller (the SM
// issue stage) is responsible for having verified that op belongs to
// the current PC and that all issue conditions hold. addrs, when
// non-nil, are the effective addresses EffAddrs already computed for
// this memory instruction; nil means compute them here. A non-nil error
// means the kernel itself is faulty (a barrier inside divergent control
// flow, a scratchpad access out of bounds); the simulation must abort.
//
// Every data instruction is one dispatch on the opcode followed by a
// loop over whole rows (isa.EvalRow and friends); lanes outside the
// active mask keep their destination and predicate values.
func (w *State) Execute(op *Op, env *Env, addrs *isa.Row) (Result, error) {
	_, mask := w.simt.Top()
	active := w.guardMask(op, mask)
	res := Result{Kind: ResNormal, Active: active}

	switch op.Code {
	case isa.BRA:
		w.simt.Branch(active, op.target, op.reconv)
		res.Finished = w.simt.Done()
		return res, nil

	case isa.EXIT:
		res.Kind = ResExit
		res.Finished = w.simt.ExitLanes(active)
		return res, nil

	case isa.BAR:
		if w.simt.Depth() > 1 {
			return res, fmt.Errorf("warp %d: barrier executed while diverged (depth %d); "+
				"kernels must only place bar.sync at convergence points", w.ID, w.simt.Depth())
		}
		res.Kind = ResBarrier
		w.simt.Advance()
		res.Finished = w.simt.Done()
		return res, nil

	case isa.SETP:
		set := isa.CmpRow(op.cmp, w.row(&op.a), w.row(&op.b))
		w.preds[op.dst] = (w.preds[op.dst] &^ active) | (set & active)

	case isa.SELP:
		isa.SelRow(w.regRow(int(op.dst)), w.row(&op.a), w.row(&op.b), w.preds[op.c.idx], active)

	case isa.LDP:
		dst, v := w.regRow(int(op.dst)), env.Params[op.off]
		for m := active; m != 0; m &= m - 1 {
			dst[bits.TrailingZeros32(m)] = v
		}

	case isa.NOP:
		// No destination: nothing to compute.

	case isa.LDG, isa.STG:
		if addrs == nil {
			addrs = &w.addrs
			w.EffAddrs(op, addrs)
		}
		res.GlobalAddrs = addrs
		if op.Code == isa.LDG {
			dst := w.regRow(int(op.dst))
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				dst[lane] = env.Gmem.Load32(addrs[lane])
			}
		} else {
			res.IsStore = true
			val := w.row(&op.b)
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				env.Gmem.Store32(addrs[lane], val[lane])
			}
		}

	case isa.LDS, isa.STS:
		if addrs == nil {
			addrs = &w.addrs
			w.EffAddrs(op, addrs)
		}
		res.SharedAddrs = addrs
		if op.Code == isa.LDS {
			dst := w.regRow(int(op.dst))
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				v, ok := load32(env.Smem, addrs[lane])
				if !ok {
					return res, w.smemFault(lane, "load", addrs[lane], len(env.Smem))
				}
				dst[lane] = v
			}
		} else {
			res.IsStore = true
			val := w.row(&op.b)
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				if !store32(env.Smem, addrs[lane], val[lane]) {
					return res, w.smemFault(lane, "store", addrs[lane], len(env.Smem))
				}
			}
		}

	default: // plain ALU / SFU
		isa.EvalRow(op.Code, w.regRow(int(op.dst)), w.row(&op.a), w.row(&op.b), w.row(&op.c), active)
	}

	w.simt.Advance()
	res.Finished = w.simt.Done()
	return res, nil
}

// load32 reads a little-endian 32-bit word from scratchpad. Accesses are
// clamped to word alignment; ok is false for an out-of-bounds access,
// which denotes a kernel bug (see smemFault).
func load32(b []byte, addr uint32) (v uint32, ok bool) {
	a := int(addr &^ 3)
	if a+4 > len(b) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b[a:]), true
}

func store32(b []byte, addr uint32, v uint32) (ok bool) {
	a := int(addr &^ 3)
	if a+4 > len(b) {
		return false
	}
	binary.LittleEndian.PutUint32(b[a:], v)
	return true
}

// smemFault is the error for an out-of-bounds scratchpad access.
func (w *State) smemFault(lane int, what string, addr uint32, size int) error {
	return fmt.Errorf("warp %d lane %d: scratchpad %s at byte %d out of bounds (size %d)", w.ID, lane, what, addr, size)
}

// LanesMask returns a mask with the low n lanes set.
func LanesMask(n int) uint32 {
	if n >= kernel.WarpSize {
		return ^uint32(0)
	}
	return 1<<n - 1
}

// PopCount returns the number of set lanes in a mask.
func PopCount(m uint32) int { return bits.OnesCount32(m) }
