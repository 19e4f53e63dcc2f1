package dram

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/simerr"
)

func timing() config.DRAMTiming {
	return config.DRAMTiming{TRRD: 6, TWR: 12, TRCD: 12, TRAS: 28, TRP: 12, TRC: 40, TCL: 12, TCDLR: 5}
}

// enq enqueues one request and fails the test if the channel refuses it.
func enq(t testing.TB, ch *Channel, addr uint32, isWrite bool, arrive int64) {
	t.Helper()
	if err := ch.Enqueue(addr, isWrite, arrive); err != nil {
		t.Fatal(err)
	}
}

// drain ticks until n requests have completed and returns them (copies:
// the slice Tick returns is only valid until the next Tick).
func drain(ch *Channel, now *int64, n int) []Request {
	var done []Request
	for len(done) < n {
		done = append(done, ch.Tick(*now)...)
		*now++
		if *now > 100000 {
			panic("drain did not complete")
		}
	}
	return done
}

func TestRowHitFasterThanMiss(t *testing.T) {
	ch := New2()
	now := int64(0)
	enq(t, ch, 0, false, 0)
	missDone := drain(ch, &now, 1)[0].Done

	enq(t, ch, 128, false, now) // same row
	start := now
	hitLat := drain(ch, &now, 1)[0].Done - start
	if hitLat >= missDone {
		t.Errorf("row hit latency %d not faster than cold activate %d", hitLat, missDone)
	}
	if ch.Stats.RowHits != 1 || ch.Stats.RowMisses != 1 {
		t.Errorf("row stats: %+v", ch.Stats)
	}
}

// New2 returns a small test channel.
func New2() *Channel { return NewChannel(4, 2048, timing(), 2) }

func TestFRFCFSPrefersRowHits(t *testing.T) {
	ch := New2()
	now := int64(0)
	// Open row 0 of bank 0.
	enq(t, ch, 0, false, 0)
	drain(ch, &now, 1)

	// Enqueue: first a row-conflict on bank 0, then a row hit on bank 0.
	enq(t, ch, 4*2048*1, false, now) // bank 0, row 1
	enq(t, ch, 256, false, now)      // bank 0, row 0
	done := drain(ch, &now, 2)
	if done[0].Addr != 256 {
		t.Error("FR-FCFS must service the row hit before the older conflict")
	}
}

func TestBanksOverlap(t *testing.T) {
	// Two requests to different banks should overlap, finishing sooner
	// than twice a single access.
	ch1 := New2()
	now := int64(0)
	enq(t, ch1, 0, false, 0)
	single := drain(ch1, &now, 1)[0].Done

	ch2 := New2()
	now = 0
	enq(t, ch2, 0, false, 0)    // bank 0
	enq(t, ch2, 2048, false, 0) // bank 1
	done := drain(ch2, &now, 2)
	last := max(done[0].Done, done[1].Done)
	if last >= 2*single {
		t.Errorf("no bank overlap: single=%d pair=%d", single, last)
	}
}

func TestWritesCounted(t *testing.T) {
	ch := New2()
	now := int64(0)
	enq(t, ch, 0, true, 0)
	drain(ch, &now, 1)
	if ch.Stats.Writes != 1 || ch.Stats.Reads != 0 {
		t.Errorf("write stats: %+v", ch.Stats)
	}
}

func TestArrivalTimeRespected(t *testing.T) {
	ch := New2()
	enq(t, ch, 0, false, 50)
	for now := int64(0); now < 50; now++ {
		if done := ch.Tick(now); len(done) != 0 {
			t.Fatalf("request serviced at %d before its arrival time", now)
		}
	}
	now := int64(50)
	if done := drain(ch, &now, 1); done[0].Done < 50 {
		t.Errorf("Done %d before arrival", done[0].Done)
	}
}

func TestSameBankSerializes(t *testing.T) {
	ch := New2()
	now := int64(0)
	enq(t, ch, 0, false, 0)
	enq(t, ch, 256, false, 0) // same bank, same row
	done := drain(ch, &now, 2)
	if done[0].Done == done[1].Done {
		t.Error("same-bank requests cannot complete simultaneously")
	}
	if ch.Pending() != 0 {
		t.Errorf("pending = %d after drain", ch.Pending())
	}
}

// TestEnqueueRefusesOutOfOrderArrival: arrival order is Enqueue's
// contract. A request that would arrive before the queue's tail is a
// typed invariant error and leaves the queue as it was; equal and later
// arrivals are accepted.
func TestEnqueueRefusesOutOfOrderArrival(t *testing.T) {
	ch := New2()
	enq(t, ch, 0, false, 100)
	enq(t, ch, 128, false, 100)
	err := ch.Enqueue(256, false, 99)
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindInvariant {
		t.Fatalf("out-of-order Enqueue returned %v, want a typed invariant error", err)
	}
	if !strings.Contains(err.Error(), "arrival order") {
		t.Errorf("error does not name the contract: %v", err)
	}
	if ch.Pending() != 2 {
		t.Errorf("refused request was queued anyway: pending %d", ch.Pending())
	}
	enq(t, ch, 256, false, 101)
	if err := ch.AuditOrder(); err != nil {
		t.Errorf("audit of a well-ordered queue: %v", err)
	}
}

// TestAuditOrderReportsCorruptQueue plants an out-of-order queue by hand
// — behind Enqueue's back, and through a snapshot — and demands that the
// audit and the restore each report it by name.
func TestAuditOrderReportsCorruptQueue(t *testing.T) {
	ch := New2()
	for i := 0; i < 4; i++ {
		enq(t, ch, uint32(i)*128, false, int64(10*i))
	}
	good := ch.Checkpoint()
	good.Queue = slices.Clone(good.Queue) // the view aliases the queue the next line corrupts
	ch.queue[1], ch.queue[2] = ch.queue[2], ch.queue[1]
	err := ch.AuditOrder()
	if err == nil || !strings.Contains(err.Error(), "out of arrival order") {
		t.Fatalf("hand-swapped queue audited as %v", err)
	}
	bad := ch.Checkpoint()
	if err := New2().RestoreState(bad); err == nil || !strings.Contains(err.Error(), "out of arrival order") {
		t.Errorf("restore of an out-of-order queue returned %v", err)
	}
	if err := New2().RestoreState(good); err != nil {
		t.Errorf("restore of the ordered queue: %v", err)
	}
	// The fault hook corrupts the same way, and undoes itself.
	ch = New2()
	enq(t, ch, 0, false, 5)
	if ch.SwapNewest() {
		t.Error("a one-entry queue has nothing to swap")
	}
	enq(t, ch, 128, false, 5)
	if ch.SwapNewest() {
		t.Error("swapping equal arrivals breaks nothing and must report false")
	}
	enq(t, ch, 256, false, 6)
	if !ch.SwapNewest() || ch.AuditOrder() == nil {
		t.Error("SwapNewest did not break the order")
	}
	if !ch.SwapNewest() || ch.AuditOrder() != nil {
		t.Error("a second SwapNewest did not restore the order")
	}
}

// TestRebaseShiftsBankTimers: after Rebase(origin) the channel behaves
// on the new clock exactly as an untouched twin does on the old one.
func TestRebaseShiftsBankTimers(t *testing.T) {
	a, b := New2(), New2()
	now := int64(0)
	for _, ch := range []*Channel{a, b} {
		now = 0
		enq(t, ch, 0, true, 0)
		enq(t, ch, 4*2048, false, 0) // same bank, other row
		drain(ch, &now, 2)
	}
	b.Rebase(now)
	enq(t, a, 8*2048, false, now)
	enq(t, b, 8*2048, false, 0)
	nowA, nowB := now, int64(0)
	da, db := drain(a, &nowA, 1)[0], drain(b, &nowB, 1)[0]
	if da.Done-now != db.Done {
		t.Errorf("rebased channel completed at %d on its clock, twin at %d (+%d)", db.Done, da.Done-now, now)
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}

// BenchmarkDRAMChannelTick measures one channel cycle — FR-FCFS scan
// and completion sweep — with a fixed number of requests
// outstanding: each completed request is re-enqueued at a fresh
// pseudo-random line, so the queue stays at its depth. shallow_queue and
// deep_queue (4 and 64 outstanding on the Table I geometry, mostly row
// conflicts) re-enqueue with Arrive = now, so every queued request has
// arrived and every walk visits the whole queue. pipelined_queue is the
// shape the latency-bound kernels actually put the channel in (sim_memory
// holds 28 requests on average, 5 of them arrived): 32 outstanding,
// re-enqueued with Arrive = now + 160, the L2 pipeline's latency.
func BenchmarkDRAMChannelTick(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
		delay int64
	}{{"shallow_queue", 4, 0}, {"deep_queue", 64, 0}, {"pipelined_queue", 32, 160}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := config.Default()
			ch := NewChannel(cfg.DRAMBanksPerPartition, cfg.DRAMRowBytes, cfg.DRAMTiming, cfg.DRAMDataLat)
			rng := uint32(1)
			next := func() uint32 { // xorshift32; lines are 128 bytes
				rng ^= rng << 13
				rng ^= rng >> 17
				rng ^= rng << 5
				return rng &^ 127
			}
			for i := 0; i < c.depth; i++ {
				enq(b, ch, next(), false, int64(i)*c.delay/int64(c.depth))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for now := int64(0); now < int64(b.N); now++ {
				for range ch.Tick(now) {
					if err := ch.Enqueue(next(), rng&(1<<20) != 0, now+c.delay); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCheckpointEmptyQueuesAreLists: the checkpoint view aliases the live
// queues, and a queue never used, or restored empty, is nil; a snapshot
// still serializes it as an empty list, as snapshots always have.
func TestCheckpointEmptyQueuesAreLists(t *testing.T) {
	restored := New2()
	if err := restored.RestoreState(New2().Checkpoint()); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]*Channel{"new": New2(), "restored": restored} {
		raw, err := json.Marshal(ch.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), `"queue":[],"inflight":[]`) {
			t.Errorf("%s channel's empty queues serialize as %s", name, raw)
		}
	}
}
