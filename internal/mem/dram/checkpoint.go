package dram

import (
	"fmt"

	"gpushare/internal/stats"
)

// Checkpoint is a channel's complete mutable state. Queue and Inflight
// preserve order — FR-FCFS breaks ties by queue position, so order is
// architecturally visible.
type Checkpoint struct {
	Banks    []Bank     `json:"banks"`
	Queue    []Request  `json:"queue"`
	Inflight []Request  `json:"inflight"`
	Stats    stats.DRAM `json:"stats"`
}

// Checkpoint returns a view of the channel's mutable state. It aliases
// the live banks and queues, so it is valid until the channel next
// ticks or takes a request: serialize it before the machine moves on.
// An empty queue is an empty list, never null.
func (c *Channel) Checkpoint() Checkpoint {
	return Checkpoint{Banks: c.banks, Queue: orEmpty(c.queue), Inflight: orEmpty(c.inflight), Stats: c.Stats}
}

// orEmpty returns q, or an empty non-nil slice for a queue never used.
func orEmpty(q []Request) []Request {
	if q == nil {
		return []Request{}
	}
	return q
}

// CheckState reports whether a snapshot fits this channel's geometry
// and its queue is arrival-ordered, without touching the channel.
func (c *Channel) CheckState(s Checkpoint) error {
	if len(s.Banks) != len(c.banks) {
		return fmt.Errorf("DRAM snapshot has %d banks, channel has %d", len(s.Banks), len(c.banks))
	}
	return auditOrder(s.Queue)
}

// RestoreState applies a snapshot onto a freshly constructed channel of
// identical geometry, or leaves the channel untouched if CheckState
// rejects it.
func (c *Channel) RestoreState(s Checkpoint) error {
	if err := c.CheckState(s); err != nil {
		return err
	}
	copy(c.banks, s.Banks)
	load := func(dst, src []Request) []Request {
		dst = append(dst[:0], src...)
		for i := range dst {
			c.resolve(&dst[i])
		}
		return dst
	}
	c.queue = load(c.queue, s.Queue)
	c.inflight = load(c.inflight, s.Inflight)
	c.Stats = s.Stats
	return nil
}
