package mem

import (
	"testing"
	"testing/quick"

	"gpushare/internal/config"
	"gpushare/internal/kernel"
)

func TestGlobalLoadStoreRoundTrip(t *testing.T) {
	g := NewGlobal()
	g.Store32(0x12345, 0xdeadbeef) // unaligned: clamps to word
	if got := g.Load32(0x12344); got != 0xdeadbeef {
		t.Errorf("load = %#x", got)
	}
	// Cross-page addresses are independent.
	g.Store32(1<<20, 1)
	g.Store32(2<<20, 2)
	if g.Load32(1<<20) != 1 || g.Load32(2<<20) != 2 {
		t.Error("pages interfere")
	}
	// Untouched memory reads zero.
	if g.Load32(0x777000) != 0 {
		t.Error("uninitialized memory not zero")
	}
}

func TestGlobalAllocAlignment(t *testing.T) {
	g := NewGlobal()
	a := g.Alloc(100)
	b := g.Alloc(1)
	c := g.Alloc(300)
	if a%256 != 0 || b%256 != 0 || c%256 != 0 {
		t.Errorf("allocations not 256B aligned: %d %d %d", a, b, c)
	}
	if a == 0 {
		t.Error("address 0 must stay unallocated (null)")
	}
	if b <= a || c <= b || b < a+100 || c < b+1 {
		t.Errorf("allocations overlap: %d %d %d", a, b, c)
	}
}

func TestGlobalWordHelpers(t *testing.T) {
	g := NewGlobal()
	addr := g.Alloc(64)
	g.WriteWords(addr, []uint32{1, 2, 3})
	if got := g.ReadWords(addr, 3); got[0] != 1 || got[2] != 3 {
		t.Errorf("words = %v", got)
	}
	g.WriteFloats(addr, []float32{1.5, -2.5})
	if got := g.ReadFloats(addr, 2); got[0] != 1.5 || got[1] != -2.5 {
		t.Errorf("floats = %v", got)
	}
}

func TestCoalesceFullWarpOneLine(t *testing.T) {
	var addrs [kernel.WarpSize]uint32
	for lane := range addrs {
		addrs[lane] = 0x1000 + uint32(4*lane)
	}
	lines := Coalesce(&addrs, ^uint32(0), 128, nil)
	if len(lines) != 1 || lines[0] != 0x1000 {
		t.Fatalf("coalesced lines = %#x", lines)
	}
}

func TestCoalesceStridedAndPartial(t *testing.T) {
	var addrs [kernel.WarpSize]uint32
	for lane := range addrs {
		addrs[lane] = uint32(lane * 256) // one line per lane
	}
	lines := Coalesce(&addrs, 0xff, 128, nil)
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8 (inactive lanes excluded)", len(lines))
	}
	// Broadcast: all lanes same address -> one line.
	for lane := range addrs {
		addrs[lane] = 0x4242
	}
	if lines := Coalesce(&addrs, ^uint32(0), 128, nil); len(lines) != 1 {
		t.Fatalf("broadcast coalescing failed: %v", lines)
	}
}

// TestCoalesceProperty: the line count never exceeds active lanes and
// every active lane's line appears exactly once.
func TestCoalesceProperty(t *testing.T) {
	f := func(seed [kernel.WarpSize]uint32, active uint32) bool {
		lines := Coalesce(&seed, active, 128, nil)
		seen := map[uint32]bool{}
		for _, l := range lines {
			if l%128 != 0 || seen[l] {
				return false
			}
			seen[l] = true
		}
		for lane := 0; lane < kernel.WarpSize; lane++ {
			if active&(1<<lane) != 0 && !seen[seed[lane]&^127] {
				return false
			}
		}
		return len(lines) <= kernel.WarpSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankConflictDegree(t *testing.T) {
	var addrs [kernel.WarpSize]uint32
	// Conflict-free: lane i hits bank i.
	for lane := range addrs {
		addrs[lane] = uint32(4 * lane)
	}
	if d := BankConflictDegree(&addrs, ^uint32(0), 32); d != 1 {
		t.Errorf("sequential degree = %d, want 1", d)
	}
	// Broadcast: same word everywhere -> degree 1.
	for lane := range addrs {
		addrs[lane] = 64
	}
	if d := BankConflictDegree(&addrs, ^uint32(0), 32); d != 1 {
		t.Errorf("broadcast degree = %d, want 1", d)
	}
	// Worst case: stride of 32 words -> every lane same bank.
	for lane := range addrs {
		addrs[lane] = uint32(4 * 32 * lane)
	}
	if d := BankConflictDegree(&addrs, ^uint32(0), 32); d != 32 {
		t.Errorf("stride-32 degree = %d, want 32", d)
	}
	// 16-word stride: two lanes per bank pair -> degree 16.
	for lane := range addrs {
		addrs[lane] = uint32(4 * 16 * lane)
	}
	if d := BankConflictDegree(&addrs, ^uint32(0), 32); d != 16 {
		t.Errorf("stride-16 degree = %d, want 16", d)
	}
}

// TestSystemReadThroughDRAM exercises the full partition path: request in,
// DRAM service, reply out, and L2 residency on a second access.
func TestSystemReadThroughDRAM(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 1
	s := NewSystem(&cfg)

	req := LineRequest{LineAddr: 0x1000, SM: 0}
	s.Send(req, 0)
	var got LineRequest
	var ok bool
	var now int64
	for now = 0; !ok && now < 10000; now++ {
		s.Tick(now)
		got, ok = s.PopReply(0, now)
	}
	if !ok || got != req {
		t.Fatal("no reply from DRAM path")
	}
	coldLat := now

	// Second access to the same line: L2 hit, must be faster.
	start := now
	s.Send(req, now)
	ok = false
	for ; !ok && now < start+10000; now++ {
		s.Tick(now)
		got, ok = s.PopReply(0, now)
	}
	if !ok || got != req {
		t.Fatal("no L2 reply")
	}
	if now-start >= coldLat {
		t.Errorf("L2 hit latency %d not faster than cold %d", now-start, coldLat)
	}
	if s.partitions[s.partitionOf(0x1000)].l2.Stats.Hits != 1 {
		t.Error("second access did not hit L2")
	}
	if !s.Drained() {
		t.Error("system not drained")
	}
}

// TestSystemMSHRMerge: two requests for the same line while the first is
// outstanding produce one DRAM read and two replies.
func TestSystemMSHRMerge(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 2
	s := NewSystem(&cfg)
	s.Send(LineRequest{LineAddr: 0x2000, SM: 0}, 0)
	s.Send(LineRequest{LineAddr: 0x2000, SM: 1}, 1)
	gotA, gotB := false, false
	for now := int64(0); now < 10000 && !(gotA && gotB); now++ {
		s.Tick(now)
		if _, ok := s.PopReply(0, now); ok {
			gotA = true
		}
		if _, ok := s.PopReply(1, now); ok {
			gotB = true
		}
	}
	if !gotA || !gotB {
		t.Fatal("merged requests did not both complete")
	}
	p := s.partitions[s.partitionOf(0x2000)]
	if p.dram.Stats.Reads != 1 {
		t.Errorf("DRAM reads = %d, want 1 (MSHR merge)", p.dram.Stats.Reads)
	}
	if p.l2.Stats.MSHRMerg != 1 {
		t.Errorf("MSHR merges = %d, want 1", p.l2.Stats.MSHRMerg)
	}
}

// TestSystemWriteNoReply: writes generate DRAM traffic but no replies.
func TestSystemWriteNoReply(t *testing.T) {
	cfg := config.Default()
	cfg.NumSMs = 1
	s := NewSystem(&cfg)
	s.Send(LineRequest{LineAddr: 0x3000, IsWrite: true, SM: 0}, 0)
	for now := int64(0); now < 5000; now++ {
		s.Tick(now)
		if _, ok := s.PopReply(0, now); ok {
			t.Fatal("write produced a reply")
		}
	}
	if !s.Drained() {
		t.Error("write never drained")
	}
	var writes int64
	for _, p := range s.partitions {
		writes += p.dram.Stats.Writes
	}
	if writes != 1 {
		t.Errorf("DRAM writes = %d", writes)
	}
}
