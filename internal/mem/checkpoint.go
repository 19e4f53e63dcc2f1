package mem

import (
	"fmt"
	"math"

	"gpushare/internal/mem/cache"
	"gpushare/internal/mem/dram"
	"gpushare/internal/mem/icnt"
)

// LineReqCheckpoint is one serialized in-flight line request. Every
// live LineRequest sits in exactly one place — the request network, the
// reply network, a partition MSHR waiter list, or the pending L2-hit
// replies — and is serialized inline there (same fields, so the two
// types convert into each other).
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

func savePackets(n *icnt.Network[LineRequest]) []PacketCheckpoint {
	var out []PacketCheckpoint
	n.ForEachAt(func(dst int, req LineRequest, readyAt int64) {
		out = append(out, PacketCheckpoint{Port: dst, Req: LineReqCheckpoint(req), ReadyAt: readyAt})
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
		pc := &c.Partitions[pi]
		*pc = PartitionCheckpoint{
			L2:            p.l2.Checkpoint(),
			DRAM:          p.dram.Checkpoint(),
			BusyCycles:    p.busy,
			DRAMQueuePeak: p.dramPeak,
			MSHRPeak:      p.mshrPeak,
			PendingPeak:   p.pendPeak,
		}
		for _, addr := range p.mshr.Lines() {
			e := MSHREntryCheckpoint{Addr: addr}
			for _, w := range p.mshr.Get(addr) {
				e.Waiters = append(e.Waiters, LineReqCheckpoint(w))
			}
			pc.MSHR = append(pc.MSHR, e)
		}
	}
	s.l2hits.ForEachAt(func(pi int, req LineRequest, at int64) {
		pc := &c.Partitions[pi]
		pc.Pending = append(pc.Pending, PendingCheckpoint{At: at, Req: LineReqCheckpoint(req)})
	})
	return c
}

// RestoreState applies a snapshot onto a system of identical
// configuration, replacing whatever it held. The invariant the live
// system maintains — a read in DRAM is the head waiter of an MSHR entry
// for its line — is checked, not trusted.
func (s *System) RestoreState(c SystemCheckpoint) error {
	if len(c.Partitions) != len(s.partitions) {
		return fmt.Errorf("memory snapshot has %d partitions, system has %d", len(c.Partitions), len(s.partitions))
	}
	s.toMem.Clear()
	s.toSM.Clear()
	s.l2hits.Clear()
	for _, pk := range c.ToMem {
		if pk.Port < 0 || pk.Port >= len(s.partitions) {
			return fmt.Errorf("memory snapshot: request-network packet for partition %d out of range", pk.Port)
		}
		s.toMem.Inject(pk.Port, LineRequest(pk.Req), pk.ReadyAt)
	}
	for _, pk := range c.ToSM {
		if pk.Port < 0 || pk.Port >= s.cfg.NumSMs {
			return fmt.Errorf("memory snapshot: reply-network packet for SM %d out of range", pk.Port)
		}
		s.toSM.Inject(pk.Port, LineRequest(pk.Req), pk.ReadyAt)
	}
	for pi, pc := range c.Partitions {
		p := s.partitions[pi]
		if err := p.l2.RestoreState(pc.L2); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		p.mshr = NewLineTable[LineRequest]()
		for _, e := range pc.MSHR {
			if len(e.Waiters) == 0 {
				return fmt.Errorf("partition %d: MSHR line %#x has no waiters", pi, e.Addr)
			}
			for _, w := range e.Waiters {
				p.mshr.Add(e.Addr, LineRequest(w))
			}
		}
		for _, d := range pc.Pending {
			s.l2hits.Inject(pi, LineRequest(d.Req), d.At)
		}
		if err := p.dram.RestoreState(pc.DRAM); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		for _, q := range [2][]dram.RequestCheckpoint{pc.DRAM.Queue, pc.DRAM.Inflight} {
			for _, rc := range q {
				if !rc.IsWrite && p.mshr.Get(rc.Addr) == nil {
					return fmt.Errorf("partition %d: DRAM read for line %#x has no MSHR entry", pi, rc.Addr)
				}
			}
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
