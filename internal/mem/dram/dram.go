// Package dram models one GDDR3 DRAM channel per memory partition with an
// FR-FCFS (first-ready, first-come-first-served) command scheduler, per-
// bank row buffers, and the activate/precharge/CAS timing constraints of
// Table I of the paper.
package dram

import (
	"math"
	"sync"

	"gpushare/internal/config"
	"gpushare/internal/stats"
)

// Request is one DRAM transaction (a cache-line read or write).
type Request struct {
	Addr    uint32 // line address
	IsWrite bool
	Tag     any   // opaque payload for the caller
	Arrive  int64 // cycle the request entered the queue
	Done    int64 // completion cycle, set by the scheduler

	// bank and row are Addr resolved against the channel's geometry, once,
	// by Enqueue (and by a checkpoint restore): every FR-FCFS scan and
	// every next-event walk reads them for each queued request, and the
	// mapping costs two divisions by a variable.
	bank int
	row  int64
}

// reqPool recycles Requests: at one allocation per memory access the
// request churn dominated the simulator's steady-state garbage.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// GetRequest returns a zeroed Request from the pool.
func GetRequest() *Request { return reqPool.Get().(*Request) }

// PutRequest returns a Request to the pool. The caller must not retain
// the pointer afterwards.
func PutRequest(r *Request) {
	*r = Request{}
	reqPool.Put(r)
}

type bank struct {
	openRow      int64 // -1 = closed
	readyAt      int64 // earliest next column command
	lastActivate int64
}

// Channel is one DRAM channel with FR-FCFS scheduling.
type Channel struct {
	banks    []bank
	queue    []*Request
	inflight []*Request
	doneBuf  []*Request // reused across Ticks to keep completion collection alloc-free
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
	// amortized on idle channels instead of a per-call queue walk.
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
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch
}

// resolve maps r's line address to its bank — rows are interleaved
// across banks at row-buffer granularity — and its row within the bank.
func (c *Channel) resolve(r *Request) {
	rowIdx := int64(r.Addr) / c.rowBytes
	n := int64(len(c.banks))
	r.bank, r.row = int(rowIdx%n), rowIdx/n
}

// Enqueue adds a request to the channel queue.
func (c *Channel) Enqueue(r *Request) {
	c.resolve(r)
	if c.memoOK {
		if at := c.schedulableAt(r); at < c.memoNext {
			c.memoNext = at
		}
	}
	c.queue = append(c.queue, r)
}

// schedulableAt returns the earliest cycle r could be scheduled under
// the current (frozen) bank state, unclamped.
func (c *Channel) schedulableAt(r *Request) int64 {
	b := &c.banks[r.bank]
	at := r.Arrive
	if b.readyAt > at {
		at = b.readyAt
	}
	if b.openRow != r.row {
		// Needs an activate, gated by the row-cycle time.
		if t := b.lastActivate + int64(c.timing.TRC); t > at {
			at = t
		}
	}
	return at
}

// Pending returns the number of queued plus in-flight requests.
func (c *Channel) Pending() int { return len(c.queue) + len(c.inflight) }

// Tick advances the channel one cycle: it may start one column command
// (FR-FCFS: row hits first, then oldest) and returns any requests whose
// data transfer completed this cycle. The returned slice is reused by
// the next Tick, so the caller must consume it before ticking again.
func (c *Channel) Tick(now int64) []*Request {
	c.scheduleOne(now)
	done := c.doneBuf[:0]
	for i := 0; i < len(c.inflight); {
		r := c.inflight[i]
		if r.Done <= now {
			done = append(done, r)
			c.inflight[i] = c.inflight[len(c.inflight)-1]
			c.inflight[len(c.inflight)-1] = nil
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
		c.memoNext = c.nextEventAbs()
		c.memoOK = true
	}
	at := c.memoNext
	if at == math.MaxInt64 {
		return at
	}
	if at <= now {
		return now + 1
	}
	return at
}

// nextEventAbs recomputes the next event time by walking the in-flight
// and queued requests, unclamped (math.MaxInt64 when empty).
func (c *Channel) nextEventAbs() int64 {
	next := int64(math.MaxInt64)
	for _, r := range c.inflight {
		if r.Done < next {
			next = r.Done
		}
	}
	for _, r := range c.queue {
		if at := c.schedulableAt(r); at < next {
			next = at
		}
	}
	return next
}

// NextEventScan is NextEvent computed by a full walk, bypassing the
// memo. The invariant auditor and the horizon property tests use it as
// the ground truth the memoized value must equal.
func (c *Channel) NextEventScan(now int64) int64 {
	at := c.nextEventAbs()
	if at == math.MaxInt64 {
		return at
	}
	if at <= now {
		return now + 1
	}
	return at
}

func (c *Channel) scheduleOne(now int64) {
	if len(c.queue) == 0 {
		return
	}
	// First ready: oldest arrived request hitting an open row on a
	// ready bank.
	pick := -1
	for i, r := range c.queue {
		if r.Arrive > now {
			continue
		}
		b := &c.banks[r.bank]
		if b.readyAt <= now && b.openRow == r.row {
			pick = i
			break
		}
	}
	rowHit := pick >= 0
	if pick < 0 {
		// Then FCFS: oldest arrived request whose bank can accept an
		// activate.
		for i, r := range c.queue {
			if r.Arrive > now {
				continue
			}
			b := &c.banks[r.bank]
			if b.readyAt <= now && now-b.lastActivate >= int64(c.timing.TRC) {
				pick = i
				break
			}
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
		b.openRow = r.row
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
