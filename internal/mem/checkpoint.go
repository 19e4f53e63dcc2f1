package mem

import (
	"fmt"
	"math"
	"sort"

	"gpushare/internal/mem/cache"
	"gpushare/internal/mem/dram"
)

// LineReqCheckpoint is one serialized in-flight line request. Every
// live *LineRequest appears exactly once across the request network,
// the reply network, the partition MSHR waiter lists, and the pending
// L2-hit replies, so each is serialized inline where it sits; restore
// allocates a fresh request per site (the pool identity is not state).
type LineReqCheckpoint struct {
	LineAddr uint32 `json:"line_addr"`
	IsWrite  bool   `json:"is_write"`
	SM       int    `json:"sm"`
}

// PacketCheckpoint is one interconnect packet in flight: its
// destination port, payload, and absolute delivery-ready cycle.
type PacketCheckpoint struct {
	Port    int               `json:"port"`
	Req     LineReqCheckpoint `json:"req"`
	ReadyAt int64             `json:"ready_at"`
}

// MSHREntryCheckpoint is one partition MSHR line with its waiters in
// merge order (fills reply to waiters in that order, which decides
// reply-network FIFO order for same-SM merges).
type MSHREntryCheckpoint struct {
	Addr    uint32              `json:"addr"`
	Waiters []LineReqCheckpoint `json:"waiters"`
}

// PendingCheckpoint is one L2 hit serving its hit latency.
type PendingCheckpoint struct {
	At  int64             `json:"at"`
	Req LineReqCheckpoint `json:"req"`
}

// PartitionCheckpoint is one memory partition's complete state. The
// observability counters ride along so a restored run reproduces the
// straight-through statistics byte-for-byte; the event-driven horizon
// memos deliberately do not — they are derived state, re-derived by the
// first Tick after restore.
type PartitionCheckpoint struct {
	L2            cache.Checkpoint      `json:"l2"`
	MSHR          []MSHREntryCheckpoint `json:"mshr"` // sorted by line address
	Pending       []PendingCheckpoint   `json:"pending"`
	DRAM          dram.Checkpoint       `json:"dram"`
	BusyCycles    int64                 `json:"busy_cycles"`
	DRAMQueuePeak int                   `json:"dram_queue_peak"`
	MSHRPeak      int                   `json:"mshr_peak"`
	PendingPeak   int                   `json:"pending_peak"`
}

// SystemCheckpoint is the memory system's complete mutable state.
type SystemCheckpoint struct {
	ToMem      []PacketCheckpoint    `json:"to_mem"`
	ToSM       []PacketCheckpoint    `json:"to_sm"`
	Partitions []PartitionCheckpoint `json:"partitions"`
}

// PageCheckpoint is one materialized 64 KiB page of the functional
// backing store.
type PageCheckpoint struct {
	Index uint32 `json:"index"`
	Data  []byte `json:"data"`
}

// GlobalCheckpoint is the functional backing store: every materialized
// page (sorted by index for deterministic bytes) and the bump-allocator
// cursor.
type GlobalCheckpoint struct {
	Pages []PageCheckpoint `json:"pages"`
	Brk   uint32           `json:"brk"`
}

func saveLineReq(r *LineRequest) LineReqCheckpoint {
	return LineReqCheckpoint{LineAddr: r.LineAddr, IsWrite: r.IsWrite, SM: r.SM}
}

func loadLineReq(c LineReqCheckpoint) *LineRequest {
	r := GetLineRequest()
	r.LineAddr, r.IsWrite, r.SM = c.LineAddr, c.IsWrite, c.SM
	return r
}

func savePackets(n interface {
	ForEachAt(func(dst int, payload any, readyAt int64))
}) []PacketCheckpoint {
	var out []PacketCheckpoint
	n.ForEachAt(func(dst int, payload any, readyAt int64) {
		out = append(out, PacketCheckpoint{Port: dst, Req: saveLineReq(payload.(*LineRequest)), ReadyAt: readyAt})
	})
	return out
}

// Checkpoint captures the memory system's mutable state. The config and
// geometry are rebuilt from the run's config on restore.
func (s *System) Checkpoint() SystemCheckpoint {
	c := SystemCheckpoint{
		ToMem:      savePackets(s.toMem),
		ToSM:       savePackets(s.toSM),
		Partitions: make([]PartitionCheckpoint, len(s.partitions)),
	}
	for pi, p := range s.partitions {
		pc := PartitionCheckpoint{
			L2:            p.l2.Checkpoint(),
			DRAM:          p.dram.Checkpoint(),
			BusyCycles:    p.busy,
			DRAMQueuePeak: p.dramPeak,
			MSHRPeak:      p.mshrPeak,
			PendingPeak:   p.pendPeak,
		}
		addrs := make([]uint32, 0, len(p.mshr))
		for addr := range p.mshr {
			addrs = append(addrs, addr)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, addr := range addrs {
			e := MSHREntryCheckpoint{Addr: addr}
			for _, w := range p.mshr[addr] {
				e.Waiters = append(e.Waiters, saveLineReq(w))
			}
			pc.MSHR = append(pc.MSHR, e)
		}
		for _, d := range p.pending[p.pendHead:] {
			pc.Pending = append(pc.Pending, PendingCheckpoint{At: d.at, Req: saveLineReq(d.req)})
		}
		c.Partitions[pi] = pc
	}
	return c
}

// RestoreState applies a snapshot onto a freshly constructed system of
// identical configuration. DRAM read tags are re-linked to the restored
// MSHR head waiter (the invariant the live system maintains: a read in
// DRAM is exactly the first MSHR waiter for its line); DRAM write tags
// are rebuilt as fresh requests, since a write's tag is only ever
// returned to the pool at completion, never consulted.
func (s *System) RestoreState(c SystemCheckpoint) error {
	if len(c.Partitions) != len(s.partitions) {
		return fmt.Errorf("memory snapshot has %d partitions, system has %d", len(c.Partitions), len(s.partitions))
	}
	s.toMem.Clear()
	s.toSM.Clear()
	for _, pk := range c.ToMem {
		if pk.Port < 0 || pk.Port >= len(s.partitions) {
			return fmt.Errorf("memory snapshot: request-network packet for partition %d out of range", pk.Port)
		}
		s.toMem.Inject(pk.Port, loadLineReq(pk.Req), pk.ReadyAt)
	}
	for _, pk := range c.ToSM {
		if pk.Port < 0 || pk.Port >= s.cfg.NumSMs {
			return fmt.Errorf("memory snapshot: reply-network packet for SM %d out of range", pk.Port)
		}
		s.toSM.Inject(pk.Port, loadLineReq(pk.Req), pk.ReadyAt)
	}
	for pi, pc := range c.Partitions {
		p := s.partitions[pi]
		if err := p.l2.RestoreState(pc.L2); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		clear(p.mshr)
		for _, e := range pc.MSHR {
			if len(e.Waiters) == 0 {
				return fmt.Errorf("partition %d: MSHR line %#x has no waiters", pi, e.Addr)
			}
			waiters := make([]*LineRequest, len(e.Waiters))
			for i, w := range e.Waiters {
				waiters[i] = loadLineReq(w)
			}
			p.mshr[e.Addr] = waiters
		}
		p.pending = p.pending[:0]
		p.pendHead = 0
		for _, d := range pc.Pending {
			p.pending = append(p.pending, delayedReply{at: d.At, req: loadLineReq(d.Req)})
		}
		var tagErr error
		err := p.dram.RestoreState(pc.DRAM, func(rc dram.RequestCheckpoint) any {
			if rc.IsWrite {
				r := GetLineRequest()
				r.LineAddr, r.IsWrite, r.SM = rc.Addr, true, -1
				return r
			}
			waiters := p.mshr[rc.Addr]
			if len(waiters) == 0 && tagErr == nil {
				tagErr = fmt.Errorf("partition %d: DRAM read for line %#x has no MSHR entry", pi, rc.Addr)
			}
			if len(waiters) == 0 {
				return nil
			}
			return waiters[0]
		})
		if err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		if tagErr != nil {
			return tagErr
		}
		p.busy = pc.BusyCycles
		p.dramPeak = pc.DRAMQueuePeak
		p.mshrPeak = pc.MSHRPeak
		p.pendPeak = pc.PendingPeak
		// The event-driven horizon memo is derived state a checkpoint
		// never carries: mark it "not yet derived" so the first Tick
		// after restore walks this partition and re-derives it fresh.
		p.nextAt = math.MinInt64
	}
	s.nextAt = math.MinInt64
	return nil
}

// Checkpoint captures the backing store: all materialized pages, in
// ascending index order, and the allocator cursor.
func (g *Global) Checkpoint() GlobalCheckpoint {
	c := GlobalCheckpoint{Brk: g.brk}
	for idx, p := range g.pages {
		if p != nil {
			c.Pages = append(c.Pages, PageCheckpoint{Index: uint32(idx), Data: append([]byte(nil), p[:]...)})
		}
	}
	return c
}

// RestoreState replaces the backing store's contents with the snapshot.
func (g *Global) RestoreState(c GlobalCheckpoint) error {
	clear(g.pages)
	for _, p := range c.Pages {
		if len(p.Data) != pageSize {
			return fmt.Errorf("memory snapshot: page %d has %d bytes, want %d", p.Index, len(p.Data), pageSize)
		}
		if p.Index >= 1<<(32-pageBits) {
			return fmt.Errorf("memory snapshot: page index %d beyond the 32-bit address space", p.Index)
		}
		g.cover(p.Index)
		g.pages[p.Index] = (*[pageSize]byte)(append([]byte(nil), p.Data...))
	}
	g.brk = c.Brk
	g.cover(g.brk >> pageBits)
	return nil
}
