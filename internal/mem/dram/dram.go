// Package dram models one GDDR3 DRAM channel per memory partition with an
// FR-FCFS (first-ready, first-come-first-served) command scheduler, per-
// bank row buffers, and the activate/precharge/CAS timing constraints of
// Table I of the paper.
package dram

import (
	"fmt"
	"math"

	"gpushare/internal/config"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
)

// Request is one DRAM transaction (a cache-line read or write). Requests
// live by value in their channel's queues: none is allocated or shared.
type Request struct {
	Addr    uint32 // line address
	IsWrite bool
	Arrive  int64 // cycle the request becomes visible to the scheduler
	Done    int64 // completion cycle, set by the scheduler

	// bank and row are Addr resolved against the channel's geometry, once,
	// by Enqueue (and by a checkpoint restore): every walk reads them for
	// each request it visits, and the mapping costs two divisions.
	bank int32
	row  uint32
}

type bank struct {
	openRow      int64 // -1 = closed
	readyAt      int64 // earliest next column command
	lastActivate int64
}

// Channel is one DRAM channel with FR-FCFS scheduling.
type Channel struct {
	banks []bank
	// queue holds the requests not yet issued, oldest first, and is
	// arrival-ordered: Arrive never decreases from head to tail (Enqueue's
	// contract, AuditOrder's check). What the scheduler may pick is thus a
	// prefix; no walk visits the tail still inside the L2 pipeline.
	queue    []Request
	inflight []Request
	doneBuf  []Request // reused across Ticks to keep completion collection alloc-free
	timing   config.DRAMTiming
	rowBytes int64
	dataLat  int64
	Stats    stats.DRAM

	// memoNext caches the channel's next event time as an absolute
	// cycle (math.MaxInt64 when empty), valid while memoOK. Bank state
	// is frozen between scheduled commands, so the memo only goes stale
	// when a command issues or a transfer completes — both invalidate
	// it for a lazy rescan — while an enqueue folds the new request's
	// schedulable time in incrementally. NextEvent is therefore O(1)
	// amortized on idle channels, and Tick returns at once on a cycle the
	// memo proves eventless. Only NextEvent arms it: a caller that never
	// asks (Config.Reference) runs every Tick in full.
	memoNext int64
	memoOK   bool
}

// NewChannel returns a channel with the given bank count and timing.
func NewChannel(banks, rowBytes int, t config.DRAMTiming, dataLat int) *Channel {
	ch := &Channel{
		banks:    make([]bank, banks),
		timing:   t,
		rowBytes: int64(rowBytes),
		dataLat:  int64(dataLat),
	}
	ch.Precharge()
	return ch
}

// Precharge closes every bank's row and clears its timers, which leaves
// the banks as NewChannel made them. For a drained channel, between
// launches: the DRAM half of a cold start.
func (c *Channel) Precharge() {
	for i := range c.banks {
		c.banks[i] = bank{openRow: -1}
	}
	c.memoOK = false
}

// resolve maps r's line address to its bank — rows are interleaved
// across banks at row-buffer granularity — and its row within the bank.
func (c *Channel) resolve(r *Request) {
	rowIdx := int64(r.Addr) / c.rowBytes
	n := int64(len(c.banks))
	r.bank, r.row = int32(rowIdx%n), uint32(rowIdx/n)
}

// Enqueue adds a line read or write that the scheduler may pick from
// cycle arrive on. One that would arrive before the current tail is
// refused with a typed invariant error: "oldest first" is queue position,
// and every early exit below relies on the two orders being the same.
func (c *Channel) Enqueue(addr uint32, isWrite bool, arrive int64) error {
	if n := len(c.queue); n > 0 && arrive < c.queue[n-1].Arrive {
		return simerr.New(simerr.KindInvariant, -1,
			"DRAM request for line %#x arrives at cycle %d, before the queue tail's %d (arrival order is the queue's contract)",
			addr, arrive, c.queue[n-1].Arrive)
	}
	r := Request{Addr: addr, IsWrite: isWrite, Arrive: arrive}
	c.resolve(&r)
	if c.memoOK {
		c.memoNext = min(c.memoNext, c.schedulableAt(&r))
	}
	c.queue = append(c.queue, r)
	return nil
}

// AuditOrder checks the arrival-order invariant by a full walk.
// Read-only; invariant class mem-idle.
func (c *Channel) AuditOrder() error {
	for i := 1; i < len(c.queue); i++ {
		if a, b := &c.queue[i-1], &c.queue[i]; b.Arrive < a.Arrive {
			return fmt.Errorf("DRAM queue out of arrival order: entry %d (line %#x) arrives at cycle %d, entry %d (line %#x) behind it at %d",
				i-1, a.Addr, a.Arrive, i, b.Addr, b.Arrive)
		}
	}
	return nil
}

// SwapNewest exchanges the two newest queued requests when their arrival
// cycles differ, which breaks the arrival order, and reports whether it
// did (fault injection only; a second call undoes the first).
func (c *Channel) SwapNewest() bool {
	n := len(c.queue)
	if n < 2 || c.queue[n-1].Arrive == c.queue[n-2].Arrive {
		return false
	}
	c.queue[n-1], c.queue[n-2] = c.queue[n-2], c.queue[n-1]
	return true
}

// schedulableAt returns the earliest cycle r could be scheduled under
// the current (frozen) bank state, unclamped. Never before r.Arrive.
func (c *Channel) schedulableAt(r *Request) int64 {
	b := &c.banks[r.bank]
	at := max(r.Arrive, b.readyAt)
	if b.openRow != int64(r.row) { // needs an activate, gated by the row-cycle time
		at = max(at, b.lastActivate+int64(c.timing.TRC))
	}
	return at
}

// Pending returns the number of queued plus in-flight requests.
func (c *Channel) Pending() int { return len(c.queue) + len(c.inflight) }

// Tick advances the channel one cycle: it may start one column command
// (FR-FCFS: row hits first, then oldest) and returns any requests whose
// data transfer completed this cycle. The returned slice is reused by
// the next Tick, so the caller must consume it before ticking again.
// While the memo is armed and in the future the cycle provably does
// nothing (NextEvent's contract): Tick returns without a look at a queue.
func (c *Channel) Tick(now int64) []Request {
	if c.memoOK && now < c.memoNext {
		return nil
	}
	c.scheduleOne(now)
	done := c.doneBuf[:0]
	for i := 0; i < len(c.inflight); {
		if r := &c.inflight[i]; r.Done <= now {
			done = append(done, *r)
			*r = c.inflight[len(c.inflight)-1]
			c.inflight = c.inflight[:len(c.inflight)-1]
			continue
		}
		i++
	}
	c.doneBuf = done
	if len(done) > 0 {
		c.memoOK = false // a completion may have been the memoized event
	}
	return done
}

// NextEvent returns the earliest future cycle at which the channel's
// state can change absent new enqueues: the soonest in-flight completion
// or the soonest cycle any queued request becomes schedulable under the
// current (frozen) bank state. Returns math.MaxInt64 when the channel is
// empty. Exact, not merely conservative: bank state only changes when a
// command is scheduled, so between now and the returned cycle every Tick
// is a no-op. Amortized O(1): the queue walk only re-runs after a
// command issue or completion invalidated the memo.
func (c *Channel) NextEvent(now int64) int64 {
	if !c.memoOK {
		c.memoNext = c.nextEventAbs(false)
		c.memoOK = true
	}
	return clampFuture(c.memoNext, now)
}

// clampFuture turns an absolute event time into NextEvent's answer: an
// event already due is reported as the next cycle.
func clampFuture(at, now int64) int64 {
	if at != math.MaxInt64 && at <= now {
		return now + 1
	}
	return at
}

// nextEventAbs recomputes the next event time from the in-flight and
// queued requests, unclamped (math.MaxInt64 when empty). No request is
// schedulable before it arrives, so unless full the walk stops at the
// first one arriving no earlier than the best time found so far.
func (c *Channel) nextEventAbs(full bool) int64 {
	next := int64(math.MaxInt64)
	for i := range c.inflight {
		next = min(next, c.inflight[i].Done)
	}
	for i := range c.queue {
		r := &c.queue[i]
		if !full && r.Arrive >= next {
			break
		}
		next = min(next, c.schedulableAt(r))
	}
	return next
}

// NextEventScan is NextEvent computed by an unconditional full walk,
// bypassing the memo and the arrival-order early exit. The invariant
// auditor and the horizon property tests use it as the ground truth the
// memoized value must equal.
func (c *Channel) NextEventScan(now int64) int64 {
	return clampFuture(c.nextEventAbs(true), now)
}

// scheduleOne issues at most one column command: first ready — the
// oldest arrived request hitting an open row on a ready bank — and
// failing that FCFS, the oldest arrived request whose bank can accept
// an activate. One walk finds both and ends at the first request that
// has not arrived: nothing behind it has either.
func (c *Channel) scheduleOne(now int64) {
	pick, rowHit := -1, false
	for i := range c.queue {
		r := &c.queue[i]
		if r.Arrive > now {
			break
		}
		b := &c.banks[r.bank]
		if b.readyAt > now {
			continue
		}
		if b.openRow == int64(r.row) {
			pick, rowHit = i, true
			break
		}
		if pick < 0 && now-b.lastActivate >= int64(c.timing.TRC) {
			pick = i
		}
	}
	if pick < 0 {
		return
	}
	c.memoOK = false // bank state is about to change
	r := c.queue[pick]
	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	b := &c.banks[r.bank]
	t := &c.timing

	var latency int64
	if rowHit {
		latency = int64(t.TCL)
		c.Stats.RowHits++
	} else {
		// Precharge (if a row is open, honouring tRAS) then activate.
		pre := int64(0)
		if b.openRow >= 0 {
			pre = int64(t.TRP)
			if early := b.lastActivate + int64(t.TRAS) - now; early > pre {
				pre = early + int64(t.TRP)
			}
		}
		latency = pre + int64(t.TRCD) + int64(t.TCL)
		b.openRow = int64(r.row)
		b.lastActivate = now + pre
		c.Stats.RowMisses++
	}
	latency += c.dataLat
	if r.IsWrite {
		latency += int64(t.TWR) - int64(t.TCL)
		if latency < c.dataLat {
			latency = c.dataLat
		}
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	r.Done = now + latency
	// The bank can take its next column command after the data transfer,
	// plus the read-after-write turnaround when applicable.
	b.readyAt = now + latency
	if r.IsWrite {
		b.readyAt += int64(t.TCDLR)
	}
	c.inflight = append(c.inflight, r)
}

// Rebase moves the bank timers onto a clock that reads 0 where the old
// one read origin: the memory system calls it between launches, once the
// channel has drained, because every launch counts its cycles from 0.
// Open rows stay open.
func (c *Channel) Rebase(origin int64) {
	for i := range c.banks {
		c.banks[i].readyAt -= origin
		c.banks[i].lastActivate -= origin
	}
	c.memoOK = false
}
