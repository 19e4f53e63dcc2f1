package dram

import (
	"fmt"

	"gpushare/internal/stats"
)

// BankCheckpoint is one bank's row-buffer and timing state.
type BankCheckpoint struct {
	OpenRow      int64 `json:"open_row"`
	ReadyAt      int64 `json:"ready_at"`
	LastActivate int64 `json:"last_activate"`
}

// RequestCheckpoint is one queued or in-flight DRAM transaction.
type RequestCheckpoint struct {
	Addr    uint32 `json:"addr"`
	IsWrite bool   `json:"is_write"`
	Arrive  int64  `json:"arrive"`
	Done    int64  `json:"done"`
}

// Checkpoint is a channel's complete mutable state. Queue and Inflight
// preserve order — FR-FCFS breaks ties by queue position, so order is
// architecturally visible.
type Checkpoint struct {
	Banks    []BankCheckpoint    `json:"banks"`
	Queue    []RequestCheckpoint `json:"queue"`
	Inflight []RequestCheckpoint `json:"inflight"`
	Stats    stats.DRAM          `json:"stats"`
}

// Checkpoint captures the channel's mutable state.
func (c *Channel) Checkpoint() Checkpoint {
	s := Checkpoint{
		Banks:    make([]BankCheckpoint, len(c.banks)),
		Queue:    make([]RequestCheckpoint, len(c.queue)),
		Inflight: make([]RequestCheckpoint, len(c.inflight)),
		Stats:    c.Stats,
	}
	for i, b := range c.banks {
		s.Banks[i] = BankCheckpoint{OpenRow: b.openRow, ReadyAt: b.readyAt, LastActivate: b.lastActivate}
	}
	for i, r := range c.queue {
		s.Queue[i] = RequestCheckpoint{Addr: r.Addr, IsWrite: r.IsWrite, Arrive: r.Arrive, Done: r.Done}
	}
	for i, r := range c.inflight {
		s.Inflight[i] = RequestCheckpoint{Addr: r.Addr, IsWrite: r.IsWrite, Arrive: r.Arrive, Done: r.Done}
	}
	return s
}

// RestoreState applies a snapshot onto a freshly constructed channel of
// identical geometry. A queue that is not arrival-ordered is rejected.
func (c *Channel) RestoreState(s Checkpoint) error {
	if len(s.Banks) != len(c.banks) {
		return fmt.Errorf("DRAM snapshot has %d banks, channel has %d", len(s.Banks), len(c.banks))
	}
	for i, b := range s.Banks {
		c.banks[i] = bank{openRow: b.OpenRow, readyAt: b.ReadyAt, lastActivate: b.LastActivate}
	}
	load := func(dst []Request, src []RequestCheckpoint) []Request {
		dst = dst[:0]
		for _, rc := range src {
			r := Request{Addr: rc.Addr, IsWrite: rc.IsWrite, Arrive: rc.Arrive, Done: rc.Done}
			c.resolve(&r)
			dst = append(dst, r)
		}
		return dst
	}
	c.queue = load(c.queue, s.Queue)
	c.inflight = load(c.inflight, s.Inflight)
	c.Stats = s.Stats
	return c.AuditOrder()
}
