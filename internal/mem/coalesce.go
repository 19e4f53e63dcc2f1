package mem

import (
	"math"
	"math/bits"

	"gpushare/internal/kernel"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// F32Bits exposes the float32 bit conversion used across the simulator.
func F32Bits(v float32) uint32 { return math.Float32bits(v) }

// F32FromBits converts an IEEE-754 bit pattern back to float32.
func F32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// Coalesce reduces the per-lane byte addresses of one warp memory
// instruction to the set of distinct cache-line addresses it touches,
// mirroring the memory-access coalescing stage of an NVIDIA LSU.
// lineSz must be a power of two. The result is appended to buf.
func Coalesce(addrs *[kernel.WarpSize]uint32, active uint32, lineSz int, buf []uint32) []uint32 {
	mask := ^uint32(lineSz - 1)
	for lane := 0; lane < kernel.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		line := addrs[lane] & mask
		dup := false
		for _, l := range buf {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, line)
		}
	}
	return buf
}

// BankConflictDegree returns the maximum number of distinct scratchpad
// words mapping to the same bank across the active lanes — the number of
// serialized scratchpad cycles the access costs. Lanes reading the same
// word broadcast and do not conflict. banks must be positive.
//
// It runs on every issued scratchpad instruction, so it works on fixed
// stack storage: the distinct words seen so far are chained per bucket
// (the bank number folded to six bits, so one bank per chain for up to
// 64 banks; entries of another bank folded onto the chain are skipped),
// and each lane walks only its own chain, which both recognises a
// broadcast and counts the words sharing the bank.
func BankConflictDegree(addrs *[kernel.WarpSize]uint32, active uint32, banks int) int {
	const buckets = 64
	var (
		head  [buckets]uint8          // first entry of the bucket's chain, +1; 0 = empty
		next  [kernel.WarpSize]uint8  // next entry in the chain, +1
		words [kernel.WarpSize]uint32 // distinct words seen
		bank  [kernel.WarpSize]uint32 // and their banks
		n     uint8                   // entries used
	)
	nb, pow2 := uint32(banks), banks&(banks-1) == 0
	deg := 1
lanes:
	for m := active; m != 0; m &= m - 1 {
		word := addrs[bits.TrailingZeros32(m)] >> 2
		b := word & (nb - 1)
		if !pow2 {
			b = word % nb
		}
		same := 1 // distinct words on bank b, this one included
		for e := head[b%buckets]; e != 0; e = next[e-1] {
			if bank[e-1] == b {
				if words[e-1] == word {
					continue lanes // broadcast: no extra cycle
				}
				same++
			}
		}
		words[n], bank[n], next[n] = word, b, head[b%buckets]
		n++
		head[b%buckets] = n
		deg = max(deg, same)
	}
	return deg
}
