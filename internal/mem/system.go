package mem

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/mem/cache"
	"gpushare/internal/mem/dram"
	"gpushare/internal/mem/icnt"
	"gpushare/internal/stats"
)

// LineRequest is one cache-line transaction from an SM to the memory
// system. Replies (for reads) are routed back to the requesting SM. It
// travels by value through every queue between the SM and DRAM, so a
// request is never allocated, owned, recycled or leaked.
type LineRequest struct {
	LineAddr uint32
	IsWrite  bool
	SM       int
}

type partition struct {
	l2   *cache.Cache
	mshr *LineTable[LineRequest]
	dram *dram.Channel

	// Observability counters (checkpointed: restore must reproduce the
	// straight-through statistics byte-for-byte).
	busy     int64 // cycles the partition processed at least one event
	dramPeak int   // high-water mark of DRAM queued + in-flight requests
	mshrPeak int   // high-water mark of outstanding L2-MSHR lines
	pendPeak int   // high-water mark of L2 hits serving their hit latency
}

// System is the global-memory timing model: an SM-to-partition request
// network, L2 cache partitions with MSHRs, per-partition GDDR3 channels,
// and a reply network back to the SMs. The functional backing store is
// Global and is updated at issue time by the warp executor; System only
// models timing. Everything in it belongs to this one simulation: two
// systems share no state, so simulations run side by side share nothing.
type System struct {
	cfg        *config.Config
	partitions []*partition
	toMem      *icnt.Network[LineRequest]
	toSM       *icnt.Network[LineRequest]
	// l2hits carries the reads that hit in L2 through the hit latency,
	// one port per partition: a fixed-latency FIFO is what a Network is.
	l2hits *icnt.Network[LineRequest]
	Global *Global

	// Faults, when non-nil, arms a DRAMQueueOrder corruption
	// (invariant-checker tests only). Set per run.
	Faults *fault.Plan

	view sysView // Checkpoint's lists, refreshed in place
}

// NewSystem builds the memory system for a configuration. Every
// partition is ticked every cycle, in every engine mode: the memory
// side skips nothing.
func NewSystem(cfg *config.Config) *System {
	s := &System{
		cfg:    cfg,
		toMem:  icnt.New[LineRequest](cfg.L2Partitions, cfg.IcntLat),
		toSM:   icnt.New[LineRequest](cfg.NumSMs, cfg.IcntLat),
		l2hits: icnt.New[LineRequest](cfg.L2Partitions, cfg.L2HitLat),
		Global: NewGlobal(),
	}
	for i := 0; i < cfg.L2Partitions; i++ {
		s.partitions = append(s.partitions, &partition{
			l2:   cache.New(cfg.L2Sets, cfg.L2Ways, cfg.L1LineSz),
			mshr: NewLineTable[LineRequest](),
			dram: dram.NewChannel(cfg.DRAMBanksPerPartition, cfg.DRAMRowBytes,
				cfg.DRAMTiming, cfg.DRAMDataLat),
		})
	}
	return s
}

// partitionOf maps a line address to its memory partition.
func (s *System) partitionOf(lineAddr uint32) int {
	return int(lineAddr>>7) % len(s.partitions)
}

// Send injects a line request from an SM at time now.
func (s *System) Send(req LineRequest, now int64) {
	s.toMem.Push(s.partitionOf(req.LineAddr), req, now)
}

// PopReply delivers the oldest ready reply for the given SM, if any.
// At most one reply per SM per cycle models the reply-network ejection
// bandwidth.
func (s *System) PopReply(sm int, now int64) (LineRequest, bool) {
	return s.toSM.Pop(sm, now)
}

// Tick advances the memory system by one cycle, ticking every
// partition. The only error is a broken internal contract (a DRAM queue
// offered a request out of arrival order).
func (s *System) Tick(now int64) error {
	for pi, p := range s.partitions {
		if err := s.tickPartition(pi, p, now); err != nil {
			return err
		}
	}
	return nil
}

// tickPartition advances one partition by one cycle: accept at most one
// request off the interconnect, schedule and complete DRAM commands,
// and deliver L2 hits whose latency elapsed. A cycle that processes at
// least one event (or issues a DRAM command) counts as busy.
func (s *System) tickPartition(pi int, p *partition, now int64) error {
	worked := false
	// Accept at most one new request per cycle per partition.
	if req, ok := s.toMem.Pop(pi, now); ok {
		if err := s.receive(pi, p, req, now); err != nil {
			return err
		}
		worked = true
	}
	// DRAM command scheduling and completions.
	cmds := p.dram.Stats.RowHits + p.dram.Stats.RowMisses
	for _, done := range p.dram.Tick(now) {
		worked = true
		if done.IsWrite {
			continue // writes carry no reply
		}
		p.l2.Fill(done.Addr)
		for _, w := range p.mshr.Take(done.Addr) {
			s.toSM.Push(w.SM, w, now)
		}
	}
	if p.dram.Stats.RowHits+p.dram.Stats.RowMisses != cmds {
		worked = true // a column command issued even if nothing completed
	}
	// L2 hits that finished their hit latency.
	for {
		req, ok := s.l2hits.Pop(pi, now)
		if !ok {
			break
		}
		s.toSM.Push(req.SM, req, now)
		worked = true
	}
	if worked {
		p.busy++
	}
	return nil
}

// AuditDRAMOrder checks what the DRAM scheduler's early exit rests on:
// every DRAM queue is arrival-ordered, so the FR-FCFS walk may stop at
// the first request that has not arrived. Read-only; the dram-order
// invariant audit.
func (s *System) AuditDRAMOrder() error {
	for pi, p := range s.partitions {
		if err := p.dram.AuditOrder(); err != nil {
			return fmt.Errorf("memory partition %d: %w", pi, err)
		}
	}
	return nil
}

func (s *System) receive(pi int, p *partition, req LineRequest, now int64) error {
	switch {
	case req.IsWrite:
		// Write-through, no-allocate: refresh the line if resident,
		// always forward to DRAM. Writes carry no reply.
		if p.l2.Probe(req.LineAddr) {
			p.l2.Fill(req.LineAddr)
		}
	case p.l2.Probe(req.LineAddr):
		s.l2hits.Push(pi, req, now)
		p.pendPeak = max(p.pendPeak, s.l2hits.Len(pi))
		return nil
	case !p.mshr.Add(req.LineAddr, req):
		p.l2.Stats.MSHRMerg++
		return nil
	default: // first miss on this line
		p.mshrPeak = max(p.mshrPeak, p.mshr.Len())
	}
	// Misses traverse the L2 lookup pipeline before reaching DRAM, so a
	// DRAM access always costs more than an L2 hit — and since now only
	// moves forward, the channel's queue is arrival-ordered.
	if err := p.dram.Enqueue(req.LineAddr, req.IsWrite, now+int64(s.cfg.L2HitLat)); err != nil {
		return err
	}
	p.dramPeak = max(p.dramPeak, p.dram.Pending())
	if s.Faults.Armed(fault.DRAMQueueOrder) && p.dram.SwapNewest() &&
		!s.Faults.Trip(fault.DRAMQueueOrder, now, -1, -1,
			fmt.Sprintf("partition %d: the two newest DRAM requests traded places", pi)) {
		p.dram.SwapNewest() // not this opportunity: put them back
	}
	return nil
}

// Drained reports whether no requests remain anywhere in the system.
func (s *System) Drained() bool {
	return s.toSM.Pending() == 0 && s.quiet()
}

// quiet reports whether nothing is on its way to, or inside, a partition.
func (s *System) quiet() bool {
	if s.toMem.Pending() > 0 || s.l2hits.Pending() > 0 {
		return false
	}
	for _, p := range s.partitions {
		if p.mshr.Len() > 0 || p.dram.Pending() > 0 {
			return false
		}
	}
	return true
}

// Settle ends a launch whose last cycle was now-1. A run stops when its
// SMs are idle, which can leave posted writes queued in DRAM, and the
// next launch counts its cycles from 0 again; so Settle ticks the
// partitions on until they are empty, drops any reply still addressed
// to the finished launch's SMs, moves the DRAM bank timers onto the new
// clock and zeroes the L2, DRAM and partition counters. L2 contents and
// open DRAM rows persist. Callers collect the launch's statistics
// first: what Settle's own ticks count is reported by no launch.
func (s *System) Settle(now int64) error {
	for ; !s.quiet(); now++ {
		if err := s.Tick(now); err != nil {
			return err
		}
	}
	s.toSM.Clear()
	for _, p := range s.partitions {
		p.dram.Rebase(now)
		p.l2.Stats, p.dram.Stats = stats.Cache{}, stats.DRAM{}
		p.busy, p.dramPeak, p.mshrPeak, p.pendPeak = 0, 0, 0, 0
	}
	return nil
}

// ForEachInFlightRead calls f for every read request currently inside
// the memory system: the request network, partition MSHR waiters
// (merged requests included), pending L2 hits, and the reply network.
// A read queued in DRAM is represented by its partition-MSHR entry, so
// every in-flight read appears exactly once. Read-only; the invariant
// auditor cross-checks this set against the SMs' L1 MSHRs (request
// conservation: nothing injected is ever lost).
func (s *System) ForEachInFlightRead(f func(req LineRequest)) {
	emit := func(_ int, req LineRequest, _ int64) {
		if !req.IsWrite {
			f(req)
		}
	}
	s.toMem.ForEachAt(emit)
	s.toSM.ForEachAt(emit)
	s.l2hits.ForEachAt(emit)
	for _, p := range s.partitions {
		p.mshr.ForEach(func(_ uint32, waiters []LineRequest) {
			for _, w := range waiters {
				f(w)
			}
		})
	}
}

// Depths reports the memory system's queue depths for forensic dumps.
func (s *System) Depths() (toMem, toSM, l2MSHR, l2Pending, dramQueued int) {
	toMem, toSM, l2Pending = s.toMem.Pending(), s.toSM.Pending(), s.l2hits.Pending()
	for _, p := range s.partitions {
		l2MSHR += p.mshr.Len()
		dramQueued += p.dram.Pending()
	}
	return
}

// CollectStats sums L2 and DRAM statistics into the aggregate and
// records the per-partition breakdown (row locality, busy/idle split,
// queue high-water marks).
func (s *System) CollectStats(g *stats.GPU) {
	g.MemParts = g.MemParts[:0]
	for _, p := range s.partitions {
		g.L2.Add(&p.l2.Stats)
		g.DRAM.Add(&p.dram.Stats)
		g.MemParts = append(g.MemParts, stats.MemPartition{
			L2:            p.l2.Stats,
			DRAM:          p.dram.Stats,
			BusyCycles:    p.busy,
			DRAMQueuePeak: p.dramPeak,
			MSHRPeak:      p.mshrPeak,
			PendingPeak:   p.pendPeak,
		})
	}
}

// FlushCaches makes the next launch a cold one (between kernels): it
// invalidates all L2 partitions and closes every DRAM row, so a flushed
// launch runs exactly as it would on a new simulator.
func (s *System) FlushCaches() {
	for _, p := range s.partitions {
		p.l2.Flush()
		p.dram.Precharge()
	}
}
