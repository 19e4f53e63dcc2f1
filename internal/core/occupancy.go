// Package core implements the paper's primary contribution: the resource-
// sharing mechanism that launches extra thread blocks per SM by letting
// pairs of blocks share registers or scratchpad memory.
//
// It contains the occupancy math of §III-C (equations 1-4), the pair and
// owner-block bookkeeping, the warp-pair register lock table with the
// deadlock-avoidance rule of Fig. 5, and the block-pair scratchpad lock.
package core

import (
	"fmt"
	"math"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
)

// Occupancy describes how many thread blocks one SM runs for a kernel.
type Occupancy struct {
	// Baseline is D = the non-sharing resident block count:
	// min(⌊R/Rtb⌋ over registers and scratchpad, thread cap, block cap).
	Baseline int
	// Max is M = U + 2S, the resident block count with sharing.
	Max int
	// Pairs is S, the number of shared block pairs.
	Pairs int
	// Unshared is U, the number of blocks running without sharing.
	Unshared int
	// Limiter names the binding baseline constraint ("registers",
	// "scratchpad", "threads", or "blocks").
	Limiter string

	// PrivateRegs is the per-thread count of unshared registers for
	// shared warps: registers with index < PrivateRegs are private,
	// the rest are shared (Fig. 3 step (c): RegNo ≤ Rw·t).
	PrivateRegs int
	// PrivateSmem is the per-block byte bound of the unshared
	// scratchpad region (Fig. 4 step (c): SMemLoc ≤ Rtb·t).
	PrivateSmem int
}

// eps guards the floating-point products behind the private-region
// bounds against values like 0.30000000000000004.
const eps = 1e-9

// ComputeOccupancy evaluates the baseline occupancy limits and, when the
// configuration enables sharing on the kernel's binding resource, the
// extended block count M of Eq. 4, capped by the thread and block limits:
//
//	M = ⌊R/Rtb⌋ + min(⌊R/Rtb⌋, ⌊frac(R/Rtb)/t⌋)
//
// A pair's second block costs whole registers or bytes, so the leftover
// frac(R/Rtb)·Rtb buys ⌊leftover / ⌈t·Rtb⌉⌋ pairs: the top-up Footprint
// charges, so a kernel's full residency always fits its SM.
func ComputeOccupancy(cfg *config.Config, k *kernel.Kernel) Occupancy {
	regPerBlock := k.RegsPerBlock()
	regLimit := int(^uint(0) >> 1)
	if regPerBlock > 0 {
		regLimit = cfg.RegsPerSM / regPerBlock
	}
	smemLimit := int(^uint(0) >> 1)
	if k.SmemPerBlock > 0 {
		smemLimit = cfg.SmemPerSM / k.SmemPerBlock
	}
	thrLimit := cfg.MaxThreadsPerSM / k.Threads()
	blkLimit := cfg.MaxBlocksPerSM

	d := min(min(regLimit, smemLimit), min(thrLimit, blkLimit))
	occ := Occupancy{Baseline: d, Max: d, Unshared: d}
	switch d {
	case regLimit:
		occ.Limiter = "registers"
	case smemLimit:
		occ.Limiter = "scratchpad"
	case thrLimit:
		occ.Limiter = "threads"
	default:
		occ.Limiter = "blocks"
	}
	if d == 0 {
		occ.Limiter = "unschedulable"
		return occ
	}

	switch cfg.Sharing {
	case config.ShareRegisters:
		occ.PrivateRegs = int(float64(k.RegsPerThread)*cfg.T + eps)
		if regLimit > d || regPerBlock == 0 {
			return occ // registers are not the binding constraint
		}
		leftover := cfg.RegsPerSM - d*regPerBlock
		occ.apply(d, leftover/topUp(cfg, regPerBlock), smemLimit, thrLimit, blkLimit)
	case config.ShareScratchpad:
		occ.PrivateSmem = int(float64(k.SmemPerBlock)*cfg.T + eps)
		if smemLimit > d || k.SmemPerBlock == 0 {
			return occ // scratchpad is not the binding constraint
		}
		leftover := cfg.SmemPerSM - d*k.SmemPerBlock
		occ.apply(d, leftover/topUp(cfg, k.SmemPerBlock), regLimit, thrLimit, blkLimit)
	}
	return occ
}

// Footprint is the one pricing rule for a kernel's resident blocks on an
// SM: the registers and scratchpad bytes held by the live slots of occ's
// layout (NewManager's: slots [0, U) unshared, pair i on U+2i and
// U+2i+1). A live unshared slot holds a full block. A pair with at least
// one live side holds Eq. 4's pair cost, r + ⌈t·r⌉, on the shared
// dimension, and a full block per live side on the other. The packer's
// increments, the SM's capacity check when it is built and the tenancy
// audit all price through it.
func Footprint(cfg *config.Config, k *kernel.Kernel, occ Occupancy, live func(slot int) bool) (regs, smem int) {
	rb, sb := k.RegsPerBlock(), k.SmemPerBlock
	for s := 0; s < occ.Unshared; s++ {
		if live(s) {
			regs += rb
			smem += sb
		}
	}
	if occ.Pairs == 0 {
		return regs, smem
	}
	shareRegs := cfg.Sharing == config.ShareRegisters
	perBlock := sb
	if shareRegs {
		perBlock = rb
	}
	pair := perBlock + topUp(cfg, perBlock)
	for i := 0; i < occ.Pairs; i++ {
		sides := 0
		for _, s := range [2]int{occ.Unshared + 2*i, occ.Unshared + 2*i + 1} {
			if live(s) {
				sides++
			}
		}
		if sides == 0 {
			continue
		}
		if shareRegs {
			regs += pair
			smem += sides * sb
		} else {
			smem += pair
			regs += sides * rb
		}
	}
	return regs, smem
}

// topUp is what a sharing pair holds beyond one block on the shared
// dimension: ⌈t·perBlock⌉, the rounding Eq. 4 and Footprint share.
func topUp(cfg *config.Config, perBlock int) int {
	return int(math.Ceil(cfg.T * float64(perBlock)))
}

// apply folds the raw pair count s into the occupancy, honouring the
// effective-block-count invariant U+S = D (§III-C) and the remaining
// resource caps.
func (occ *Occupancy) apply(d, s int, caps ...int) {
	if s > d {
		s = d
	}
	m := d + s
	for _, c := range caps {
		if m > c {
			m = c
		}
	}
	if m < d {
		m = d
	}
	occ.Max = m
	occ.Pairs = m - d
	occ.Unshared = d - occ.Pairs
}

// String summarizes the occupancy.
func (o Occupancy) String() string {
	if o.Pairs == 0 {
		return fmt.Sprintf("%d blocks/SM (limited by %s)", o.Baseline, o.Limiter)
	}
	return fmt.Sprintf("%d blocks/SM (%d unshared + %d pairs; baseline %d, limited by %s)",
		o.Max, o.Unshared, o.Pairs, o.Baseline, o.Limiter)
}
