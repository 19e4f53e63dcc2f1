package mem

import (
	"fmt"
	"math"
	"sync"

	"gpushare/internal/config"
	"gpushare/internal/fault"
	"gpushare/internal/mem/cache"
	"gpushare/internal/mem/dram"
	"gpushare/internal/mem/icnt"
	"gpushare/internal/stats"
)

// missedMemWakeSlack is how far a MissedMemWake fault pushes a
// partition's memoized next-work cycle past its true horizon: long
// enough that the skipped range provably contains live work, short
// enough that the next invariant audit catches it quickly.
const missedMemWakeSlack = 64

// LineRequest is one cache-line transaction from an SM to the memory
// system. Replies (for reads) are routed back to the requesting SM.
type LineRequest struct {
	LineAddr uint32
	IsWrite  bool
	SM       int
}

// lineReqPool recycles LineRequests. Reads are returned to the pool by
// the SM that consumes the reply; writes are returned by System.Tick
// when the DRAM write completes (writes carry no reply). Requests
// dropped by fault injection are deliberately never recycled.
var lineReqPool = sync.Pool{New: func() any { return new(LineRequest) }}

// GetLineRequest returns a zeroed LineRequest from the pool.
func GetLineRequest() *LineRequest { return lineReqPool.Get().(*LineRequest) }

// PutLineRequest returns a LineRequest to the pool. The caller must not
// retain the pointer afterwards.
func PutLineRequest(r *LineRequest) {
	*r = LineRequest{}
	lineReqPool.Put(r)
}

type delayedReply struct {
	at  int64
	req *LineRequest
}

type partition struct {
	l2       *cache.Cache
	mshr     map[uint32][]*LineRequest
	dram     *dram.Channel
	pending  []delayedReply // L2 hits serving their hit latency
	pendHead int            // consumed prefix of pending (reset when drained)

	// waiterFree recycles MSHR waiter slices: a retired entry's backing
	// array is reused by the next first-miss instead of allocating, so
	// the steady-state receive path is allocation-free.
	waiterFree [][]*LineRequest

	// nextAt is the memoized next-work cycle when the system is
	// event-driven: the earliest cycle at which this partition could
	// accept a request, schedule or complete a DRAM command, or deliver
	// a pending L2 hit (math.MaxInt64 when drained, math.MinInt64 when
	// not yet derived). Maintained by Send and each partition tick,
	// never recomputed by scanning on the fast path; engine-local state
	// that is never serialized.
	nextAt int64

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
// models timing.
type System struct {
	cfg        *config.Config
	partitions []*partition
	toMem      *icnt.Network
	toSM       *icnt.Network
	Global     *Global

	// sleep arms the event-driven tick: partitions with a memoized
	// next-work cycle in the future are skipped individually, and when
	// every partition is idle Tick early-outs in O(1). nextAt is the
	// minimum of the partition horizons (the O(1) early-out bound).
	// Both are engine-local, never serialized; faults optionally arms a
	// MissedMemWake corruption of a refreshed horizon.
	sleep  bool
	nextAt int64
	faults *fault.Plan
}

// SetEventDriven arms (on) or disarms the event-driven tick. Horizons
// are reset to "not yet derived", so the first Tick after arming walks
// every partition once and derives them fresh — which is also how a
// restored system re-derives the memoized state a checkpoint never
// carries. faults, when non-nil, injects MissedMemWake corruptions
// (invariant-checker tests only). Called at run start.
func (s *System) SetEventDriven(on bool, faults *fault.Plan) {
	s.sleep = on
	s.faults = faults
	s.nextAt = math.MinInt64
	for _, p := range s.partitions {
		p.nextAt = math.MinInt64
	}
}

// NewSystem builds the memory system for a configuration.
func NewSystem(cfg *config.Config) *System {
	s := &System{
		cfg:    cfg,
		toMem:  icnt.New(cfg.L2Partitions, cfg.IcntLat),
		toSM:   icnt.New(cfg.NumSMs, cfg.IcntLat),
		Global: NewGlobal(),
	}
	for i := 0; i < cfg.L2Partitions; i++ {
		s.partitions = append(s.partitions, &partition{
			l2:   cache.New(cfg.L2Sets, cfg.L2Ways, cfg.L1LineSz),
			mshr: make(map[uint32][]*LineRequest),
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

// Send injects a line request from an SM at time now. In event-driven
// mode the target partition's next-work memo absorbs the delivery
// cycle, so a sleeping partition wakes exactly when the request crosses
// the interconnect.
func (s *System) Send(req *LineRequest, now int64) {
	pi := s.partitionOf(req.LineAddr)
	s.toMem.Push(pi, req, now)
	if s.sleep {
		at := now + s.toMem.Latency()
		if p := s.partitions[pi]; at < p.nextAt {
			p.nextAt = at
		}
		if at < s.nextAt {
			s.nextAt = at
		}
	}
}

// PopReply delivers the oldest ready reply for the given SM, or nil.
// At most one reply per SM per cycle models the reply-network ejection
// bandwidth.
func (s *System) PopReply(sm int, now int64) *LineRequest {
	p := s.toSM.Pop(sm, now)
	if p == nil {
		return nil
	}
	return p.(*LineRequest)
}

// Tick advances the memory system by one cycle. In event-driven mode a
// partition whose memoized next-work cycle is still in the future is
// provably workless this cycle and is skipped; when now precedes every
// partition's horizon the whole call early-outs in O(1). The skip is
// exact, not approximate: horizons are maintained at every state
// change (Send, enqueue, DRAM completion, L2-pending push), so the
// statistics are byte-identical to ticking every partition every cycle.
func (s *System) Tick(now int64) {
	if !s.sleep {
		for pi, p := range s.partitions {
			s.tickPartition(pi, p, now)
		}
		return
	}
	if now < s.nextAt {
		return
	}
	next := int64(math.MaxInt64)
	for pi, p := range s.partitions {
		if now >= p.nextAt {
			s.tickPartition(pi, p, now)
			s.refreshHorizon(pi, p, now)
		}
		if p.nextAt < next {
			next = p.nextAt
		}
	}
	s.nextAt = next
}

// tickPartition advances one partition by one cycle: accept at most one
// request off the interconnect, schedule and complete DRAM commands,
// and deliver L2 hits whose latency elapsed. A cycle that processes at
// least one event (or issues a DRAM command) counts as busy; the split
// is event-derived, so it is identical whether idle cycles are ticked
// or skipped.
func (s *System) tickPartition(pi int, p *partition, now int64) {
	worked := false
	// Accept at most one new request per cycle per partition.
	if pkt := s.toMem.Pop(pi, now); pkt != nil {
		s.receive(p, pkt.(*LineRequest), now)
		worked = true
	}
	// DRAM command scheduling and completions.
	cmds := p.dram.Stats.RowHits + p.dram.Stats.RowMisses
	for _, done := range p.dram.Tick(now) {
		worked = true
		req := done.Tag.(*LineRequest)
		isWrite := done.IsWrite
		dram.PutRequest(done)
		if isWrite {
			PutLineRequest(req) // writes carry no reply
			continue
		}
		p.l2.Fill(req.LineAddr)
		waiters := p.mshr[req.LineAddr]
		delete(p.mshr, req.LineAddr)
		for _, w := range waiters {
			s.toSM.Push(w.SM, w, now)
		}
		// Recycle the waiter slice for the next first-miss on this
		// partition (the requests themselves are owned by the SMs now).
		for i := range waiters {
			waiters[i] = nil
		}
		p.waiterFree = append(p.waiterFree, waiters[:0])
	}
	if p.dram.Stats.RowHits+p.dram.Stats.RowMisses != cmds {
		worked = true // a column command issued even if nothing completed
	}
	// L2 hits that finished their hit latency. pending is consumed
	// via a head index instead of re-slicing so the backing array is
	// reused once fully drained.
	for p.pendHead < len(p.pending) && p.pending[p.pendHead].at <= now {
		d := &p.pending[p.pendHead]
		s.toSM.Push(d.req.SM, d.req, now)
		d.req = nil
		p.pendHead++
		worked = true
	}
	if p.pendHead == len(p.pending) {
		p.pending = p.pending[:0]
		p.pendHead = 0
	}
	if worked {
		p.busy++
	}
}

// refreshHorizon recomputes a just-ticked partition's next-work cycle
// from its three O(1) sources: the interconnect port's next delivery,
// the DRAM channel's memoized next event, and the front pending L2
// hit. The result is strictly greater than now (every due event was
// just processed) or math.MaxInt64 when the partition is drained.
func (s *System) refreshHorizon(pi int, p *partition, now int64) {
	h := s.toMem.NextReadyPort(pi, now)
	if at := p.dram.NextEvent(now); at < h {
		h = at
	}
	if p.pendHead < len(p.pending) {
		at := p.pending[p.pendHead].at
		if at <= now {
			at = now + 1
		}
		if at < h {
			h = at
		}
	}
	// A MissedMemWake fault pushes the horizon past the true next
	// event, so the skipped range provably contains live work; the
	// ClassMemIdle audit must catch the mismatch before it can corrupt
	// results silently.
	if s.faults != nil && h != math.MaxInt64 &&
		s.faults.Trip(fault.MissedMemWake, now, -1, -1,
			fmt.Sprintf("partition %d next-work pushed from cycle %d to %d", pi, h, h+missedMemWakeSlack)) {
		h += missedMemWakeSlack
	}
	p.nextAt = h
}

// scanHorizon is refreshHorizon's ground truth: the same three sources
// recomputed by full scans, bypassing every memo. The ClassMemIdle
// audit and the horizon property tests compare it against the
// memoized value — any divergence means a skipped cycle was not
// provably workless.
func (s *System) scanHorizon(pi int, p *partition, now int64) int64 {
	h := s.toMem.NextReadyPort(pi, now) // direct port-front read, no memo
	if at := p.dram.NextEventScan(now); at < h {
		h = at
	}
	if p.pendHead < len(p.pending) {
		at := p.pending[p.pendHead].at
		if at <= now {
			at = now + 1
		}
		if at < h {
			h = at
		}
	}
	return h
}

// AuditMemIdle cross-checks the event-driven tick's memoized horizons
// against from-scratch recomputes: every partition horizon must match
// its scan, the global early-out bound must be their minimum, and the
// interconnect memos must match their port scans. Returns nil when the
// system is not event-driven. Read-only; invariant class mem-idle.
func (s *System) AuditMemIdle(now int64) error {
	if !s.sleep {
		return nil
	}
	if s.nextAt == math.MinInt64 {
		return nil // horizons not yet derived (no Tick since arming/restore)
	}
	min := int64(math.MaxInt64)
	for pi, p := range s.partitions {
		if p.nextAt <= now {
			return fmt.Errorf("memory partition %d is due at cycle %d but was not ticked by cycle %d (missed wake)",
				pi, p.nextAt, now)
		}
		if scan := s.scanHorizon(pi, p, now); scan != p.nextAt {
			return fmt.Errorf("memory partition %d memoized next-work cycle %d != scan recompute %d (missed wake)",
				pi, p.nextAt, scan)
		}
		if p.nextAt < min {
			min = p.nextAt
		}
	}
	if s.nextAt != min {
		return fmt.Errorf("memory system early-out bound %d != minimum partition horizon %d", s.nextAt, min)
	}
	return nil
}

func (s *System) receive(p *partition, req *LineRequest, now int64) {
	// Misses traverse the L2 lookup pipeline before reaching DRAM, so a
	// DRAM access always costs more than an L2 hit.
	missAt := now + int64(s.cfg.L2HitLat)
	if req.IsWrite {
		// Write-through, no-allocate: refresh the line if resident,
		// always forward to DRAM. Writes carry no reply.
		if p.l2.Probe(req.LineAddr) {
			p.l2.Fill(req.LineAddr)
		}
		p.dram.Enqueue(newDRAMReq(req.LineAddr, true, req, missAt))
		if d := p.dram.Pending(); d > p.dramPeak {
			p.dramPeak = d
		}
		return
	}
	if p.l2.Probe(req.LineAddr) {
		p.pending = append(p.pending, delayedReply{at: now + int64(s.cfg.L2HitLat), req: req})
		if d := len(p.pending) - p.pendHead; d > p.pendPeak {
			p.pendPeak = d
		}
		return
	}
	if waiters, merged := p.mshr[req.LineAddr]; merged {
		p.l2.Stats.MSHRMerg++
		p.mshr[req.LineAddr] = append(waiters, req)
		return
	}
	// First miss on this line: take a recycled waiter slice if one is
	// free so the steady-state miss path allocates nothing.
	var ws []*LineRequest
	if n := len(p.waiterFree); n > 0 {
		ws, p.waiterFree = p.waiterFree[n-1], p.waiterFree[:n-1]
	}
	p.mshr[req.LineAddr] = append(ws, req)
	if d := len(p.mshr); d > p.mshrPeak {
		p.mshrPeak = d
	}
	p.dram.Enqueue(newDRAMReq(req.LineAddr, false, req, missAt))
	if d := p.dram.Pending(); d > p.dramPeak {
		p.dramPeak = d
	}
}

func newDRAMReq(addr uint32, isWrite bool, tag *LineRequest, arrive int64) *dram.Request {
	r := dram.GetRequest()
	r.Addr, r.IsWrite, r.Tag, r.Arrive = addr, isWrite, tag, arrive
	return r
}

// Drained reports whether no requests remain anywhere in the system.
func (s *System) Drained() bool {
	if s.toMem.Pending() > 0 || s.toSM.Pending() > 0 {
		return false
	}
	for _, p := range s.partitions {
		if len(p.mshr) > 0 || len(p.pending)-p.pendHead > 0 || p.dram.Pending() > 0 {
			return false
		}
	}
	return true
}

// ForEachInFlightRead calls f for every read request currently inside
// the memory system: the request network, partition MSHR waiters
// (merged requests included), pending L2 hits, and the reply network.
// A read queued in DRAM is represented by its partition-MSHR entry, so
// every in-flight read appears exactly once. Read-only; the invariant
// auditor cross-checks this set against the SMs' L1 MSHRs (request
// conservation: nothing injected is ever lost).
func (s *System) ForEachInFlightRead(f func(req *LineRequest)) {
	emit := func(p any) {
		if req, ok := p.(*LineRequest); ok && !req.IsWrite {
			f(req)
		}
	}
	s.toMem.ForEach(emit)
	s.toSM.ForEach(emit)
	for _, p := range s.partitions {
		for _, waiters := range p.mshr {
			for _, w := range waiters {
				f(w)
			}
		}
		for _, d := range p.pending[p.pendHead:] {
			f(d.req)
		}
	}
}

// Depths reports the memory system's queue depths for forensic dumps.
func (s *System) Depths() (toMem, toSM, l2MSHR, l2Pending, dramQueued int) {
	toMem, toSM = s.toMem.Pending(), s.toSM.Pending()
	for _, p := range s.partitions {
		l2MSHR += len(p.mshr)
		l2Pending += len(p.pending) - p.pendHead
		dramQueued += p.dram.Pending()
	}
	return
}

// CollectStats sums L2 and DRAM statistics into the aggregate and
// records the per-partition breakdown (row locality, busy/idle split,
// queue high-water marks). The breakdown counters are event-derived,
// so they are identical whether idle cycles were ticked or skipped.
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

// FlushCaches invalidates all L2 partitions (between kernels).
func (s *System) FlushCaches() {
	for _, p := range s.partitions {
		p.l2.Flush()
	}
}
