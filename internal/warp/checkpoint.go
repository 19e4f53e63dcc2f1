package warp

import (
	"fmt"

	"gpushare/internal/kernel"
)

// StateCheckpoint is a warp's complete serialized execution state. The
// hardware slot (State.ID) is assigned by the SM at construction and is
// not part of the snapshot; the register file length implicitly encodes
// the kernel's registers-per-thread and is validated on restore.
type StateCheckpoint struct {
	DynID     int64       `json:"dyn_id"`
	BlockSlot int         `json:"block_slot"`
	WarpInCta int         `json:"warp_in_cta"`
	Lanes     uint32      `json:"lanes"`
	Stack     []SIMTEntry `json:"stack"`
	Regs      []uint32    `json:"regs"`
	Preds     []uint32    `json:"preds"`
}

// Checkpoint returns a view of the warp's full execution state:
// identity, reconvergence stack, register file, and predicate
// registers. The view aliases the live stack and registers rather than
// copying them, so it is valid until the warp next executes or resets:
// serialize it before the machine moves on.
func (w *State) Checkpoint() StateCheckpoint {
	c := StateCheckpoint{
		DynID:     w.DynID,
		BlockSlot: w.BlockSlot,
		WarpInCta: w.WarpInCta,
		Lanes:     w.Lanes,
		Stack:     w.simt.stack,
		Preds:     w.preds[:],
	}
	if len(w.regs) > 0 { // a register-less kernel's file serializes as null
		c.Regs = w.regs
	}
	return c
}

// RestoreView returns a snapshot whose register file, predicates and
// SIMT stack are the warp's own storage (the stack empty, with its
// capacity), for a decoder to fill in place. A list of another length
// than the storage's comes out that length (a longer one in a fresh
// array), which RestoreState's length checks reject, or for the stack
// copy. Every field of a SIMTEntry is always serialized, so a decode
// into one leaves nothing of the old entry.
func (w *State) RestoreView() StateCheckpoint {
	return StateCheckpoint{Stack: w.simt.stack[:0], Regs: w.regs, Preds: w.preds[:]}
}

// RestoreState applies a snapshot onto this warp, which must have been
// constructed for the same kernel (same registers-per-thread). The
// hardware slot (w.ID) is untouched. A snapshot decoded into the views
// RestoreView hands out makes the copies below self-copies.
func (w *State) RestoreState(c StateCheckpoint) error {
	if len(c.Regs) != len(w.regs) {
		return fmt.Errorf("warp %d: snapshot register file has %d words, warp has %d", w.ID, len(c.Regs), len(w.regs))
	}
	if len(c.Preds) != kernel.MaxPredRegs {
		return fmt.Errorf("warp %d: snapshot has %d predicate registers, want %d", w.ID, len(c.Preds), kernel.MaxPredRegs)
	}
	w.DynID = c.DynID
	w.BlockSlot = c.BlockSlot
	w.WarpInCta = c.WarpInCta
	w.Lanes = c.Lanes
	w.simt.stack = append(w.simt.stack[:0], c.Stack...)
	copy(w.regs, c.Regs)
	copy(w.preds[:], c.Preds)
	return nil
}
