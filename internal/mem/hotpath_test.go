package mem

import (
	"math/rand"
	"testing"

	"gpushare/internal/kernel"
)

// refBankConflictDegree is the map-per-call implementation the
// allocation-free BankConflictDegree replaced, kept as its oracle.
func refBankConflictDegree(addrs *[kernel.WarpSize]uint32, active uint32, banks int) int {
	if active == 0 {
		return 1
	}
	words := make(map[int][]uint32, banks)
	deg := 1
	for lane := 0; lane < kernel.WarpSize; lane++ {
		if active&(1<<lane) == 0 {
			continue
		}
		word := addrs[lane] >> 2
		b := int(word) % banks
		dup := false
		for _, w := range words[b] {
			if w == word {
				dup = true
				break
			}
		}
		if !dup {
			words[b] = append(words[b], word)
			if len(words[b]) > deg {
				deg = len(words[b])
			}
		}
	}
	return deg
}

// bankPatterns are the address shapes scratchpad kernels produce.
var bankPatterns = map[string]func(rng *rand.Rand, lane, banks int) uint32{
	"random":     func(rng *rand.Rand, _, _ int) uint32 { return rng.Uint32() },
	"small":      func(rng *rand.Rand, _, _ int) uint32 { return uint32(rng.Intn(256)) }, // many duplicates
	"broadcast":  func(_ *rand.Rand, _, _ int) uint32 { return 64 },
	"stride1":    func(_ *rand.Rand, lane, _ int) uint32 { return uint32(4 * lane) },
	"stride2":    func(_ *rand.Rand, lane, _ int) uint32 { return uint32(8 * lane) },
	"same-bank":  func(_ *rand.Rand, lane, banks int) uint32 { return uint32(4 * banks * lane) }, // all distinct, one bank
	"unaligned":  func(_ *rand.Rand, lane, _ int) uint32 { return uint32(4*lane + lane%4) },
	"high-words": func(rng *rand.Rand, lane, _ int) uint32 { return 0xffffff00 + uint32(4*(lane%8)) },
}

func TestBankConflictDegreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, banks := range []int{1, 16, 32, 33, 64} {
		for name, gen := range bankPatterns {
			for trial := 0; trial < 50; trial++ {
				var addrs [kernel.WarpSize]uint32
				for lane := range addrs {
					addrs[lane] = gen(rng, lane, banks)
				}
				for _, active := range []uint32{^uint32(0), 0, 1 << uint(rng.Intn(32)), rng.Uint32(), 0x0fffffff} {
					got, want := BankConflictDegree(&addrs, active, banks), refBankConflictDegree(&addrs, active, banks)
					if got != want {
						t.Fatalf("%s banks=%d active=%#x: degree %d, reference %d (addrs %v)", name, banks, active, got, want, addrs)
					}
				}
			}
		}
	}
}

// TestGlobalLoadNeverMaterialises: loads, from inside or beyond the
// page table, return zero and leave the table exactly as it was, so a
// checkpoint carries only the pages something stored to.
func TestGlobalLoadNeverMaterialises(t *testing.T) {
	g := NewGlobal()
	base := g.Alloc(3 * pageSize)
	g.Store32(base+pageSize+8, 42)
	tableLen := len(g.pages)
	for _, addr := range []uint32{0, base, base + 2*pageSize, base + 64*pageSize, 0xfffffffc} {
		if v := g.Load32(addr); v != 0 {
			t.Errorf("load of untouched %#x = %d, want 0", addr, v)
		}
	}
	if g.Load32(base+pageSize+8) != 42 {
		t.Error("stored word lost")
	}
	if len(g.pages) != tableLen {
		t.Errorf("loads grew the page table from %d to %d entries", tableLen, len(g.pages))
	}
	if n := len(g.Checkpoint().Pages); n != 1 {
		t.Errorf("%d pages materialised, want only the stored one", n)
	}
}

// TestGlobalCheckpointAscendingPages stores to pages in scrambled order,
// including one far beyond the allocator cursor, and checks the
// snapshot lists them by ascending index and restores byte-identically.
func TestGlobalCheckpointAscendingPages(t *testing.T) {
	g := NewGlobal()
	g.Alloc(8 * pageSize)
	for _, pg := range []uint32{5, 1, 300, 3, 0, 7} {
		g.Store32(pg<<pageBits+16, pg+1)
	}
	c := g.Checkpoint()
	if len(c.Pages) != 6 {
		t.Fatalf("%d pages, want 6", len(c.Pages))
	}
	for i := 1; i < len(c.Pages); i++ {
		if c.Pages[i-1].Index >= c.Pages[i].Index {
			t.Fatalf("page %d (index %d) not after page %d (index %d)", i, c.Pages[i].Index, i-1, c.Pages[i-1].Index)
		}
	}
	r := NewGlobal()
	if err := r.RestoreState(c); err != nil {
		t.Fatal(err)
	}
	if r.Load32(300<<pageBits+16) != 301 || r.Load32(16) != 1 {
		t.Error("restored contents differ")
	}
	if again := r.Checkpoint(); len(again.Pages) != len(c.Pages) || again.Brk != c.Brk {
		t.Errorf("restored store re-checkpoints to %d pages brk %d, want %d pages brk %d",
			len(again.Pages), again.Brk, len(c.Pages), c.Brk)
	}
	if next := r.Alloc(16); next != g.Alloc(16) {
		t.Error("restored allocator cursor diverged")
	}
	c.Pages[0].Index = 1 << (32 - pageBits)
	if err := NewGlobal().RestoreState(c); err == nil {
		t.Error("page index beyond the address space must be rejected")
	}
}

// BenchmarkBankConflictDegree covers the three shapes that bound the
// cost: every lane on one word, the conflict-free unit stride, and the
// worst case of 32 distinct words on one bank.
func BenchmarkBankConflictDegree(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride uint32
	}{{"broadcast", 0}, {"stride1", 4}, {"stride32", 128}} {
		b.Run(bc.name, func(b *testing.B) {
			var addrs [kernel.WarpSize]uint32
			for lane := range addrs {
				addrs[lane] = 64 + bc.stride*uint32(lane)
			}
			b.ReportAllocs()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += BankConflictDegree(&addrs, ^uint32(0), 32)
			}
			sinkDegree = sum
		})
	}
}

var sinkDegree int
