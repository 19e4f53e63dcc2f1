package mem

import (
	"fmt"
	"slices"

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
// straight-through statistics byte-for-byte.
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

// sysView is the storage System.Checkpoint refreshes in place: the
// packet lists, and per partition its MSHR entries, their waiters and
// its pending hits. It is built at the first capture and keeps its
// capacity, so a later capture allocates nothing.
type sysView struct {
	toMem, toSM []PacketCheckpoint
	parts       []PartitionCheckpoint
	mshr        [][]MSHREntryCheckpoint
	waiters     [][]LineReqCheckpoint
	pending     [][]PendingCheckpoint
	lines       []uint32
}

// orNil returns s, or nil for an empty s: an empty list in a view
// serializes as null, as one appended from nil does.
func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func savePackets(out []PacketCheckpoint, n *icnt.Network[LineRequest]) []PacketCheckpoint {
	n.ForEachAt(func(dst int, req LineRequest, readyAt int64) {
		out = append(out, PacketCheckpoint{Port: dst, Req: LineReqCheckpoint(req), ReadyAt: readyAt})
	})
	return out
}

// Checkpoint returns a view of the memory system's mutable state. The
// config and geometry are rebuilt from the run's config on restore. The
// view's lists are the system's own storage, refreshed by every call
// (and the L2 and DRAM parts alias the live caches and channels), so it
// is valid until the system next ticks or is checkpointed again:
// serialize it before the machine moves on.
func (s *System) Checkpoint() SystemCheckpoint {
	v := &s.view
	if v.parts == nil {
		n := len(s.partitions)
		v.parts = make([]PartitionCheckpoint, n)
		v.mshr, v.waiters, v.pending = make([][]MSHREntryCheckpoint, n), make([][]LineReqCheckpoint, n), make([][]PendingCheckpoint, n)
	}
	v.toMem, v.toSM = savePackets(v.toMem[:0], s.toMem), savePackets(v.toSM[:0], s.toSM)
	for pi, p := range s.partitions {
		v.lines = p.mshr.AppendLines(v.lines[:0])
		es, ws := v.mshr[pi][:0], v.waiters[pi][:0]
		for _, addr := range v.lines {
			from := len(ws)
			for _, w := range p.mshr.Get(addr) {
				ws = append(ws, LineReqCheckpoint(w))
			}
			// A later append may move ws; this entry keeps the array it
			// was written into, which nothing writes again until the
			// next capture.
			es = append(es, MSHREntryCheckpoint{Addr: addr, Waiters: ws[from:len(ws):len(ws)]})
		}
		v.mshr[pi], v.waiters[pi], v.pending[pi] = es, ws, v.pending[pi][:0]
		v.parts[pi] = PartitionCheckpoint{
			L2:            p.l2.Checkpoint(),
			MSHR:          orNil(es),
			DRAM:          p.dram.Checkpoint(),
			BusyCycles:    p.busy,
			DRAMQueuePeak: p.dramPeak,
			MSHRPeak:      p.mshrPeak,
			PendingPeak:   p.pendPeak,
		}
	}
	s.l2hits.ForEachAt(func(pi int, req LineRequest, at int64) {
		v.pending[pi] = append(v.pending[pi], PendingCheckpoint{At: at, Req: LineReqCheckpoint(req)})
	})
	for pi := range v.parts {
		v.parts[pi].Pending = orNil(v.pending[pi])
	}
	return SystemCheckpoint{ToMem: orNil(v.toMem), ToSM: orNil(v.toSM), Partitions: v.parts}
}

// check validates a snapshot against this system's geometry and the
// invariant the live system maintains — a read in DRAM is the head
// waiter of an MSHR entry for its line — without touching the system.
func (s *System) check(c SystemCheckpoint) error {
	if len(c.Partitions) != len(s.partitions) {
		return fmt.Errorf("memory snapshot has %d partitions, system has %d", len(c.Partitions), len(s.partitions))
	}
	for _, pk := range c.ToMem {
		if pk.Port < 0 || pk.Port >= len(s.partitions) {
			return fmt.Errorf("memory snapshot: request-network packet for partition %d out of range", pk.Port)
		}
	}
	for _, pk := range c.ToSM {
		if pk.Port < 0 || pk.Port >= s.cfg.NumSMs {
			return fmt.Errorf("memory snapshot: reply-network packet for SM %d out of range", pk.Port)
		}
	}
	for pi, pc := range c.Partitions {
		p := s.partitions[pi]
		if err := p.l2.CheckState(pc.L2); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		for _, e := range pc.MSHR {
			if len(e.Waiters) == 0 {
				return fmt.Errorf("partition %d: MSHR line %#x has no waiters", pi, e.Addr)
			}
		}
		if err := p.dram.CheckState(pc.DRAM); err != nil {
			return fmt.Errorf("partition %d: %w", pi, err)
		}
		for _, q := range [2][]dram.Request{pc.DRAM.Queue, pc.DRAM.Inflight} {
			for _, rc := range q {
				if !rc.IsWrite && !slices.ContainsFunc(pc.MSHR, func(e MSHREntryCheckpoint) bool { return e.Addr == rc.Addr }) {
					return fmt.Errorf("partition %d: DRAM read for line %#x has no MSHR entry", pi, rc.Addr)
				}
			}
		}
	}
	return nil
}

// RestoreState applies a snapshot of the memory system and one of its
// backing store (s.Global) onto a system of identical configuration,
// replacing whatever they held. Both snapshots are checked in full
// before either is applied, so a rejected pair leaves the system and
// the store exactly as they were: both outlive the run that restores
// them.
func (s *System) RestoreState(c SystemCheckpoint, g GlobalCheckpoint) error {
	if err := s.check(c); err != nil {
		return err
	}
	if err := g.check(); err != nil {
		return err
	}
	s.toMem.Clear()
	s.toSM.Clear()
	s.l2hits.Clear()
	for _, pk := range c.ToMem {
		s.toMem.Inject(pk.Port, LineRequest(pk.Req), pk.ReadyAt)
	}
	for _, pk := range c.ToSM {
		s.toSM.Inject(pk.Port, LineRequest(pk.Req), pk.ReadyAt)
	}
	for pi, pc := range c.Partitions {
		p := s.partitions[pi]
		// Checked above: neither restore can fail.
		_ = p.l2.RestoreState(pc.L2)
		_ = p.dram.RestoreState(pc.DRAM)
		p.mshr.Reset()
		for _, e := range pc.MSHR {
			for _, w := range e.Waiters {
				p.mshr.Add(e.Addr, LineRequest(w))
			}
		}
		for _, d := range pc.Pending {
			s.l2hits.Inject(pi, LineRequest(d.Req), d.At)
		}
		p.busy = pc.BusyCycles
		p.dramPeak = pc.DRAMQueuePeak
		p.mshrPeak = pc.MSHRPeak
		p.pendPeak = pc.PendingPeak
	}
	s.Global.apply(g)
	return nil
}

// Checkpoint returns a view of the backing store: all materialized
// pages, in ascending index order, and the allocator cursor. Each page's
// Data aliases the live page, and the page list is the store's own,
// refreshed by every call, so the view is valid until the next store or
// checkpoint: serialize it before the machine moves on.
func (g *Global) Checkpoint() GlobalCheckpoint {
	g.view = g.view[:0]
	for idx, p := range g.pages {
		if p != nil {
			g.view = append(g.view, PageCheckpoint{Index: uint32(idx), Data: p[:]})
		}
	}
	return GlobalCheckpoint{Pages: orNil(g.view), Brk: g.brk}
}

// Unstored counts the pages below the allocator cursor that nothing has
// stored to yet: the pages a checkpoint of the store can still grow by
// without another allocation.
func (g *Global) Unstored() int {
	n := 0
	for idx := uint32(0); idx <= g.brk>>pageBits; idx++ {
		if int(idx) >= len(g.pages) || g.pages[idx] == nil {
			n++
		}
	}
	return n
}

// check validates a backing-store snapshot without touching any store.
func (c GlobalCheckpoint) check() error {
	for _, p := range c.Pages {
		if len(p.Data) != pageSize {
			return fmt.Errorf("memory snapshot: page %d has %d bytes, want %d", p.Index, len(p.Data), pageSize)
		}
		if p.Index >= 1<<(32-pageBits) {
			return fmt.Errorf("memory snapshot: page index %d beyond the 32-bit address space", p.Index)
		}
	}
	return nil
}

// RestoreState replaces the backing store's contents with the snapshot,
// or leaves them untouched if the snapshot is malformed. The store
// adopts each page's Data as its page instead of copying it — the
// snapshot is decoded for this restore and nothing else holds it — so c
// must not be used, or restored again, afterwards.
func (g *Global) RestoreState(c GlobalCheckpoint) error {
	if err := c.check(); err != nil {
		return err
	}
	g.apply(c)
	return nil
}

// apply is RestoreState on a checked snapshot.
func (g *Global) apply(c GlobalCheckpoint) {
	clear(g.pages)
	for _, p := range c.Pages {
		g.cover(p.Index)
		g.pages[p.Index] = (*[pageSize]byte)(p.Data)
	}
	g.brk = c.Brk
	g.cover(g.brk >> pageBits)
}
