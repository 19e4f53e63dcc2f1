// Package dram models one GDDR3 DRAM channel per memory partition with an
// FR-FCFS (first-ready, first-come-first-served) command scheduler, per-
// bank row buffers, and the activate/precharge/CAS timing constraints of
// Table I of the paper.
package dram

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/simerr"
	"gpushare/internal/stats"
)

// Request is one DRAM transaction (a cache-line read or write). Requests
// live by value in their channel's queues: none is allocated or shared.
// A checkpoint serializes the live queues as they are: the exported
// fields carry their JSON names, and the resolved ones are rebuilt on
// restore.
type Request struct {
	Addr    uint32 `json:"addr"` // line address
	IsWrite bool   `json:"is_write"`
	Arrive  int64  `json:"arrive"` // cycle the request becomes visible to the scheduler
	Done    int64  `json:"done"`   // completion cycle, set by the scheduler

	// bank and row are Addr resolved against the channel's geometry, once,
	// by Enqueue (and by a checkpoint restore): every walk reads them for
	// each request it visits, and the mapping costs two divisions.
	bank int32
	row  uint32
}

// Bank is one bank's row-buffer and timing state, serialized as it is
// by a checkpoint.
type Bank struct {
	OpenRow      int64 `json:"open_row"` // -1 = closed
	ReadyAt      int64 `json:"ready_at"` // earliest next column command
	LastActivate int64 `json:"last_activate"`
}

// Channel is one DRAM channel with FR-FCFS scheduling.
type Channel struct {
	banks []Bank
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
}

// NewChannel returns a channel with the given bank count and timing.
func NewChannel(banks, rowBytes int, t config.DRAMTiming, dataLat int) *Channel {
	ch := &Channel{
		banks:    make([]Bank, banks),
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
		c.banks[i] = Bank{OpenRow: -1}
	}
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
	c.queue = append(c.queue, r)
	return nil
}

// AuditOrder checks the arrival-order invariant by a full walk.
// Read-only; the dram-order invariant audit.
func (c *Channel) AuditOrder() error { return auditOrder(c.queue) }

// auditOrder checks that q is in arrival order.
func auditOrder(q []Request) error {
	for i := 1; i < len(q); i++ {
		if a, b := &q[i-1], &q[i]; b.Arrive < a.Arrive {
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

// Pending returns the number of queued plus in-flight requests.
func (c *Channel) Pending() int { return len(c.queue) + len(c.inflight) }

// Tick advances the channel one cycle: it may start one column command
// (FR-FCFS: row hits first, then oldest) and returns any requests whose
// data transfer completed this cycle. The returned slice is reused by
// the next Tick, so the caller must consume it before ticking again.
// An empty channel has nothing to schedule or complete, so Tick returns
// without a walk (two length loads, inlined into the caller); otherwise
// tick runs the cycle.
func (c *Channel) Tick(now int64) []Request {
	if len(c.queue) == 0 && len(c.inflight) == 0 {
		return nil
	}
	return c.tick(now)
}

func (c *Channel) tick(now int64) []Request {
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
	return done
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
		if b.ReadyAt > now {
			continue
		}
		if b.OpenRow == int64(r.row) {
			pick, rowHit = i, true
			break
		}
		if pick < 0 && now-b.LastActivate >= int64(c.timing.TRC) {
			pick = i
		}
	}
	if pick < 0 {
		return
	}
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
		if b.OpenRow >= 0 {
			pre = int64(t.TRP)
			if early := b.LastActivate + int64(t.TRAS) - now; early > pre {
				pre = early + int64(t.TRP)
			}
		}
		latency = pre + int64(t.TRCD) + int64(t.TCL)
		b.OpenRow = int64(r.row)
		b.LastActivate = now + pre
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
	b.ReadyAt = now + latency
	if r.IsWrite {
		b.ReadyAt += int64(t.TCDLR)
	}
	c.inflight = append(c.inflight, r)
}

// Rebase moves the bank timers onto a clock that reads 0 where the old
// one read origin: the memory system calls it between launches, once the
// channel has drained, because every launch counts its cycles from 0.
// Open rows stay open.
func (c *Channel) Rebase(origin int64) {
	for i := range c.banks {
		c.banks[i].ReadyAt -= origin
		c.banks[i].LastActivate -= origin
	}
}
