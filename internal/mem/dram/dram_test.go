package dram

import (
	"testing"

	"gpushare/internal/config"
)

func timing() config.DRAMTiming {
	return config.DRAMTiming{TRRD: 6, TWR: 12, TRCD: 12, TRAS: 28, TRP: 12, TRC: 40, TCL: 12, TCDLR: 5}
}

func drain(ch *Channel, now *int64, n int) []*Request {
	var done []*Request
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
	first := &Request{Addr: 0, Arrive: 0}
	ch.Enqueue(first)
	drain(ch, &now, 1)
	missDone := first.Done

	second := &Request{Addr: 128, Arrive: now} // same row
	ch.Enqueue(second)
	start := now
	drain(ch, &now, 1)
	hitLat := second.Done - start
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
	warm := &Request{Addr: 0, Arrive: 0}
	ch.Enqueue(warm)
	drain(ch, &now, 1)

	// Enqueue: first a row-conflict on bank 0, then a row hit on bank 0.
	conflict := &Request{Addr: 4 * 2048 * 1, Arrive: now} // bank 0, row 1
	hit := &Request{Addr: 256, Arrive: now}               // bank 0, row 0
	ch.Enqueue(conflict)
	ch.Enqueue(hit)
	done := drain(ch, &now, 2)
	if done[0] != hit {
		t.Error("FR-FCFS must service the row hit before the older conflict")
	}
}

func TestBanksOverlap(t *testing.T) {
	// Two requests to different banks should overlap, finishing sooner
	// than twice a single access.
	ch1 := New2()
	now := int64(0)
	r := &Request{Addr: 0, Arrive: 0}
	ch1.Enqueue(r)
	drain(ch1, &now, 1)
	single := r.Done

	ch2 := New2()
	now = 0
	a := &Request{Addr: 0, Arrive: 0}    // bank 0
	b := &Request{Addr: 2048, Arrive: 0} // bank 1
	ch2.Enqueue(a)
	ch2.Enqueue(b)
	drain(ch2, &now, 2)
	last := max(a.Done, b.Done)
	if last >= 2*single {
		t.Errorf("no bank overlap: single=%d pair=%d", single, last)
	}
}

func TestWritesCounted(t *testing.T) {
	ch := New2()
	now := int64(0)
	ch.Enqueue(&Request{Addr: 0, IsWrite: true, Arrive: 0})
	drain(ch, &now, 1)
	if ch.Stats.Writes != 1 || ch.Stats.Reads != 0 {
		t.Errorf("write stats: %+v", ch.Stats)
	}
}

func TestArrivalTimeRespected(t *testing.T) {
	ch := New2()
	r := &Request{Addr: 0, Arrive: 50}
	ch.Enqueue(r)
	for now := int64(0); now < 50; now++ {
		if done := ch.Tick(now); len(done) != 0 {
			t.Fatalf("request serviced at %d before its arrival time", now)
		}
	}
	now := int64(50)
	drain(ch, &now, 1)
	if r.Done < 50 {
		t.Errorf("Done %d before arrival", r.Done)
	}
}

func TestSameBankSerializes(t *testing.T) {
	ch := New2()
	now := int64(0)
	a := &Request{Addr: 0, Arrive: 0}
	b := &Request{Addr: 256, Arrive: 0} // same bank, same row
	ch.Enqueue(a)
	ch.Enqueue(b)
	drain(ch, &now, 2)
	if a.Done == b.Done {
		t.Error("same-bank requests cannot complete simultaneously")
	}
	if ch.Pending() != 0 {
		t.Errorf("pending = %d after drain", ch.Pending())
	}
}

// BenchmarkDRAMChannelTick measures one channel cycle — FR-FCFS scan,
// completion sweep, next-event query — with a fixed number of requests
// outstanding: each completed request is re-enqueued at a fresh
// pseudo-random line, so the queue stays at its depth. deep_queue (64
// outstanding on the Table I geometry, mostly row conflicts) is the
// shape the latency-bound kernels put the channel in, where every scan
// and every next-event walk visits the whole queue.
func BenchmarkDRAMChannelTick(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"shallow_queue", 4}, {"deep_queue", 64}} {
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
				ch.Enqueue(&Request{Addr: next()})
			}
			var sink int64
			b.ReportAllocs()
			b.ResetTimer()
			for now := int64(0); now < int64(b.N); now++ {
				for _, r := range ch.Tick(now) {
					*r = Request{Addr: next(), IsWrite: rng&(1<<20) != 0, Arrive: now}
					ch.Enqueue(r)
				}
				sink += ch.NextEvent(now)
			}
			if sink == 0 {
				b.Fatal("next-event query optimised away")
			}
		})
	}
}
