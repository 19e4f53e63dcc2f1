package dram

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpushare/internal/config"
)

// refChannel is the full-scan FR-FCFS scheduler Channel replaced, kept as
// its oracle: two complete passes over the queue on every cycle, a
// complete walk for the next event, no memo, and no assumption about the
// queue's order beyond "position is age".
type refChannel struct {
	banks    []bank
	queue    []Request
	inflight []Request
	t        config.DRAMTiming
	rowBytes int64
	dataLat  int64
	reads    int64
	writes   int64
	rowHits  int64
	rowMiss  int64
}

func newRefChannel(banks, rowBytes int, t config.DRAMTiming, dataLat int) *refChannel {
	c := &refChannel{banks: make([]bank, banks), t: t, rowBytes: int64(rowBytes), dataLat: int64(dataLat)}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

func (c *refChannel) enqueue(addr uint32, isWrite bool, arrive int64) {
	rowIdx := int64(addr) / c.rowBytes
	n := int64(len(c.banks))
	c.queue = append(c.queue, Request{Addr: addr, IsWrite: isWrite, Arrive: arrive, bank: int32(rowIdx % n), row: uint32(rowIdx / n)})
}

func (c *refChannel) tick(now int64) []Request {
	pick, rowHit := -1, false
	for i, r := range c.queue {
		if b := &c.banks[r.bank]; r.Arrive <= now && b.readyAt <= now && b.openRow == int64(r.row) {
			pick, rowHit = i, true
			break
		}
	}
	if pick < 0 {
		for i, r := range c.queue {
			if b := &c.banks[r.bank]; r.Arrive <= now && b.readyAt <= now && now-b.lastActivate >= int64(c.t.TRC) {
				pick = i
				break
			}
		}
	}
	if pick >= 0 {
		r := c.queue[pick]
		c.queue = append(c.queue[:pick:pick], c.queue[pick+1:]...)
		b := &c.banks[r.bank]
		lat := int64(c.t.TCL)
		if rowHit {
			c.rowHits++
		} else {
			pre := int64(0)
			if b.openRow >= 0 {
				pre = int64(c.t.TRP)
				if early := b.lastActivate + int64(c.t.TRAS) - now; early > pre {
					pre = early + int64(c.t.TRP)
				}
			}
			lat = pre + int64(c.t.TRCD) + int64(c.t.TCL)
			b.openRow, b.lastActivate = int64(r.row), now+pre
			c.rowMiss++
		}
		lat += c.dataLat
		if r.IsWrite {
			lat = max(lat+int64(c.t.TWR)-int64(c.t.TCL), c.dataLat)
			c.writes++
		} else {
			c.reads++
		}
		r.Done, b.readyAt = now+lat, now+lat
		if r.IsWrite {
			b.readyAt += int64(c.t.TCDLR)
		}
		c.inflight = append(c.inflight, r)
	}
	var done []Request
	for i := 0; i < len(c.inflight); {
		if c.inflight[i].Done <= now {
			done = append(done, c.inflight[i])
			c.inflight[i] = c.inflight[len(c.inflight)-1]
			c.inflight = c.inflight[:len(c.inflight)-1]
			continue
		}
		i++
	}
	return done
}

func (c *refChannel) nextEvent() int64 {
	next := int64(math.MaxInt64)
	for _, r := range c.inflight {
		next = min(next, r.Done)
	}
	for _, r := range c.queue {
		b := &c.banks[r.bank]
		at := max(r.Arrive, b.readyAt)
		if b.openRow != int64(r.row) {
			at = max(at, b.lastActivate+int64(c.t.TRC))
		}
		next = min(next, at)
	}
	return next
}

// diff compares a channel's whole state with the oracle's.
func (c *refChannel) diff(ch *Channel) error {
	switch {
	case !slices.Equal(c.banks, ch.banks):
		return fmt.Errorf("banks: oracle %+v, channel %+v", c.banks, ch.banks)
	case !slices.Equal(c.queue, ch.queue):
		return fmt.Errorf("queue: oracle %+v, channel %+v", c.queue, ch.queue)
	case !slices.Equal(c.inflight, ch.inflight):
		return fmt.Errorf("in flight: oracle %+v, channel %+v", c.inflight, ch.inflight)
	case c.reads != ch.Stats.Reads || c.writes != ch.Stats.Writes || c.rowHits != ch.Stats.RowHits || c.rowMiss != ch.Stats.RowMisses:
		return fmt.Errorf("stats: oracle r%d w%d hit%d miss%d, channel %+v", c.reads, c.writes, c.rowHits, c.rowMiss, ch.Stats)
	}
	return nil
}

// TestChannelMatchesFullScanOracle drives the oracle and two Channels in
// lockstep with fuzzed traffic — reads and writes, idle gaps, bursts of
// 16-40 requests that cover every bank, requests that spend 0, 12 or 160
// cycles in the L2 pipeline before the scheduler may see them — and
// demands, on every cycle, the same pick (the queues and banks match
// afterwards), the same completions in the same order, the same counters
// and the same next event. One Channel is built with the next-event memo
// behind Tick's early return, and its memo, whenever armed, must equal
// the oracle's next event; the other is built without it, which is how
// Config.Reference runs it, and its full walk must equal the oracle's.
// Mid-stream the first is checkpointed, restored into a fresh channel
// and replaced by it.
func TestChannelMatchesFullScanOracle(t *testing.T) {
	cfg := config.Default()
	for _, delay := range []int64{0, 12, 160} {
		for seed := int64(1); seed <= 4; seed++ {
			mk := func(memo bool) *Channel {
				return NewChannel(cfg.DRAMBanksPerPartition, cfg.DRAMRowBytes, cfg.DRAMTiming, cfg.DRAMDataLat, memo)
			}
			ref := newRefChannel(cfg.DRAMBanksPerPartition, cfg.DRAMRowBytes, cfg.DRAMTiming, cfg.DRAMDataLat)
			memo, plain := mk(true), mk(false)
			rng := rand.New(rand.NewSource(seed))
			deepest, armed := 0, 0
			send := func(addr uint32, isWrite bool, arrive int64) {
				ref.enqueue(addr, isWrite, arrive)
				enq(t, memo, addr, isWrite, arrive)
				enq(t, plain, addr, isWrite, arrive)
			}
			for now := int64(0); now < 20000; now++ {
				// Offered load is above what the channel serves, so the
				// queue is capped the way the MSHRs cap it in the machine.
				switch r := rng.Intn(100); {
				case len(ref.queue) > 96:
				case r < 2: // a burst across every bank, rows mostly conflicting
					base := uint32(rng.Intn(1 << 10))
					for k, n := 0, 16+rng.Intn(25); k < n; k++ {
						send((base+uint32(k))*uint32(cfg.DRAMRowBytes)+uint32(rng.Intn(16))*128, rng.Intn(5) == 0, now+delay)
					}
				case r < 30: // a trickle with row locality
					send(uint32(rng.Intn(64))*128+uint32(rng.Intn(4))<<20, rng.Intn(8) == 0, now+delay)
				case r < 31: // a quiet stretch
					now += int64(rng.Intn(400))
				}
				if now == 9000 {
					restored := mk(true)
					if err := restored.RestoreState(memo.Checkpoint()); err != nil {
						t.Fatal(err)
					}
					memo = restored
				}
				deepest = max(deepest, len(ref.queue))
				want := ref.tick(now)
				for i, ch := range []*Channel{memo, plain} {
					name := [2]string{"memo", "plain"}[i]
					got := ch.Tick(now)
					if !slices.Equal(got, want) {
						t.Fatalf("delay %d seed %d cycle %d %s: completions %+v, oracle %+v", delay, seed, now, name, got, want)
					}
					if err := ref.diff(ch); err != nil {
						t.Fatalf("delay %d seed %d cycle %d %s: %v", delay, seed, now, name, err)
					}
				}
				next := ref.nextEvent()
				if memo.memoOK {
					armed++
					if memo.memoNext != next {
						t.Fatalf("delay %d seed %d cycle %d: memo %d, oracle %d", delay, seed, now, memo.memoNext, next)
					}
				}
				if got := plain.nextEvent(true); got != next {
					t.Fatalf("delay %d seed %d cycle %d: full walk %d, oracle %d", delay, seed, now, got, next)
				}
				if plain.memoOK {
					t.Fatal("a channel built without the memo armed it")
				}
			}
			if ref.reads+ref.writes < 2000 || deepest < 2*len(ref.banks) || armed < 2000 {
				t.Fatalf("delay %d seed %d: %d requests served, deepest queue %d, memo armed on %d cycles: the traffic is too thin to mean anything",
					delay, seed, ref.reads+ref.writes, deepest, armed)
			}
		}
	}
}
