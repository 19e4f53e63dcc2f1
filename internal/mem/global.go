// Package mem implements the global-memory subsystem: the functional
// backing store, the 128-byte access coalescer, the L2/DRAM memory
// partitions, and the interconnect glue between SMs and partitions.
package mem

import (
	"encoding/binary"
	"math"

	"gpushare/internal/simerr"
)

const pageBits = 16 // 64 KiB pages
const pageSize = 1 << pageBits

// PageSize is the size in bytes of one page of the backing store, the
// unit a checkpoint serializes it in.
const PageSize = pageSize

// Global is the functional global-memory backing store: a sparse, paged,
// byte-addressable space with a bump allocator. Address 0 is kept
// unallocated so kernels can use 0 as a null pointer.
type Global struct {
	// pages is a dense page table indexed by addr>>pageBits; nil marks a
	// page nothing has stored to yet. It covers every allocated address
	// and grows only in Alloc, Store32 and RestoreState, never on a load.
	pages []*[pageSize]byte
	brk   uint32
	view  []PageCheckpoint // Checkpoint's page list, refreshed in place
}

// NewGlobal returns an empty global memory.
func NewGlobal() *Global {
	return &Global{brk: 256}
}

// Alloc reserves n bytes and returns the base address, 256-byte aligned
// so allocations start cache-line aligned. A request that is negative or
// does not fit in the rest of the 32-bit address space would alias
// earlier allocations, so Alloc refuses it by panicking with a typed
// *simerr.SimError (KindLaunch), which the runner reports as a
// deterministic failure and does not retry; the store is left unchanged.
func (g *Global) Alloc(n int) uint32 {
	base := (uint64(g.brk) + 255) &^ 255
	if n < 0 || base+uint64(n) > math.MaxUint32 {
		panic(simerr.New(simerr.KindLaunch, -1,
			"global memory: allocating %d bytes at %#x overflows the 32-bit address space", n, base))
	}
	g.brk = uint32(base + uint64(n))
	g.cover(g.brk >> pageBits)
	return uint32(base)
}

// cover extends the page table to include page index idx.
func (g *Global) cover(idx uint32) {
	if need := int(idx) + 1; need > len(g.pages) {
		g.pages = append(g.pages, make([]*[pageSize]byte, need-len(g.pages))...)
	}
}

// Load32 reads a little-endian 32-bit word. Unaligned addresses are
// clamped to word alignment (our ISA is word-oriented). Reading an
// untouched page returns zero without materializing it.
func (g *Global) Load32(addr uint32) uint32 {
	a := addr &^ 3
	idx := a >> pageBits
	if int(idx) >= len(g.pages) || g.pages[idx] == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(g.pages[idx][a&(pageSize-1):])
}

// Store32 writes a little-endian 32-bit word.
func (g *Global) Store32(addr uint32, v uint32) {
	a := addr &^ 3
	idx := a >> pageBits
	g.cover(idx)
	p := g.pages[idx]
	if p == nil {
		p = new([pageSize]byte)
		g.pages[idx] = p
	}
	binary.LittleEndian.PutUint32(p[a&(pageSize-1):], v)
}

// WriteWords copies words into memory starting at addr.
func (g *Global) WriteWords(addr uint32, words []uint32) {
	for i, w := range words {
		g.Store32(addr+uint32(4*i), w)
	}
}

// ReadWords reads n words starting at addr.
func (g *Global) ReadWords(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = g.Load32(addr + uint32(4*i))
	}
	return out
}

// WriteFloats stores float32 values as their bit patterns.
func (g *Global) WriteFloats(addr uint32, vals []float32) {
	for i, v := range vals {
		g.Store32(addr+uint32(4*i), f32bits(v))
	}
}

// ReadFloats reads n float32 values.
func (g *Global) ReadFloats(addr uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = f32frombits(g.Load32(addr + uint32(4*i)))
	}
	return out
}
