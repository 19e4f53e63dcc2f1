package smcore

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"gpushare/internal/config"
	"gpushare/internal/isa"
	"gpushare/internal/kernel"
	"gpushare/internal/mem"
)

// TestWBEventSize pins the writeback event, which is also the wheel
// arena's node, at 24 bytes with no pointer in it: every issued
// instruction with a result schedules one, so padding between fields is
// paid on every schedule, and a pointer-free arena is one the garbage
// collector never scans. The checkpoint form (WBCheckpoint) is a
// separate type, so the layout does not reach checkpoint bytes.
func TestWBEventSize(t *testing.T) {
	if got := unsafe.Sizeof(wbEvent{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(wbEvent{}) = %d, want 24 (fields widest first: uint64, int32, int32, uint32, uint8, bool)", got)
	}
}

// TestWheelSpansEveryLatency pins the wheel's contract to the
// configuration's bound: the longest writeback an SM schedules —
// config.MaxSMLat plus the worst scratchpad bank conflict (a warp's
// lanes on distinct words of one bank) or the worst register-bank
// conflict (every source of a three-source instruction on one bank) —
// lies strictly inside the span, which is a power of two.
func TestWheelSpansEveryLatency(t *testing.T) {
	if wbWheelSize&(wbWheelSize-1) != 0 {
		t.Fatalf("wbWheelSize = %d, want a power of two", wbWheelSize)
	}
	cfg := config.Default()
	var addrs [kernel.WarpSize]uint32
	for i := range addrs {
		addrs[i] = uint32(i * 4 * cfg.SmemBanks) // lane i: word i*banks, all on bank 0
	}
	smem := int64(mem.BankConflictDegree(&addrs, ^uint32(0), cfg.SmemBanks) - 1)
	cfg.RFBanks = 1
	ffma := isa.Instr{Op: isa.FFMA, Dst: isa.Reg(0), A: isa.Reg(1), B: isa.Reg(2), C: isa.Reg(3)}
	rf := rfConflictCycles(&cfg, &ffma)
	if smem != kernel.WarpSize-1 || rf != 2 {
		t.Fatalf("worst conflicts: scratchpad %d, register file %d; want %d and 2", smem, rf, kernel.WarpSize-1)
	}
	if worst := config.MaxSMLat + max(smem, rf); worst >= wbWheelSize {
		t.Fatalf("the longest writeback is %d cycles (MaxSMLat %d + %d), not inside the %d-cycle wheel",
			worst, config.MaxSMLat, max(smem, rf), wbWheelSize)
	}
}

// takeWB takes the next event due at now the way SM.Tick and
// processWritebacks do: nothing unless due says so, then the slot's
// chain.
func takeWB(w *wbWheel, now int64) (ev wbEvent, ok bool) {
	ok = w.due(now) && w.next(now, &ev)
	return ev, ok
}

// wheelModel is the reference the wheel is held to: every scheduled
// event keyed by deadline, in scheduling order. peak is the most events
// it held at once since the last reset, the most nodes the arena may
// need.
type wheelModel struct {
	evs        map[int64][]wbEvent
	held, peak int
}

func (m *wheelModel) schedule(at int64, ev wbEvent) {
	m.evs[at] = append(m.evs[at], ev)
	m.held++
	m.peak = max(m.peak, m.held)
}

// take removes and returns the first event due at now.
func (m *wheelModel) take(now int64) (wbEvent, bool) {
	evs := m.evs[now]
	if len(evs) == 0 {
		return wbEvent{}, false
	}
	if m.evs[now] = evs[1:]; len(m.evs[now]) == 0 {
		delete(m.evs, now)
	}
	m.held--
	return evs[0], true
}

func (m *wheelModel) reset() {
	clear(m.evs)
	m.held, m.peak = 0, 0
}

type dueEvent struct {
	at int64
	ev wbEvent
}

// listing is forEach's order: events by slot index, FIFO within a slot.
func (m *wheelModel) listing() []dueEvent {
	var l []dueEvent
	for at, evs := range m.evs {
		for _, ev := range evs {
			l = append(l, dueEvent{at, ev})
		}
	}
	// Stable within a slot: one slot holds one deadline, whose events
	// were appended in scheduling order.
	slices.SortStableFunc(l, func(a, b dueEvent) int {
		return cmp.Compare(a.at&(wbWheelSize-1), b.at&(wbWheelSize-1))
	})
	return l
}

// TestWheelMatchesModel drives the wheel and the model with the same
// random schedules, per-cycle drains, resets and walks, and demands the
// same events retire in the same order and forEach list the same events
// in the same order. The schedules keep the wheel's contract — every
// deadline 1 to wbWheelSize-1 cycles ahead, from short latencies to
// either side of the longest, and every cycle drained — and include
// schedules made mid-drain, which reuse the node just freed or grow the
// arena, and resets. The arena may never hold more nodes than events
// were in the wheel at once: a retired node is reused through the free
// list.
func TestWheelMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w wbWheel
		m := &wheelModel{evs: map[int64][]wbEvent{}}
		id := uint64(0)
		sched := func(now int64) {
			var at int64
			switch r := rng.Intn(20); {
			case r < 14:
				at = now + 1 + rng.Int63n(24)
			case r < 17:
				at = now + wbWheelSize - 1 - rng.Int63n(3) // the span's far edge
			default:
				at = now + 1 + rng.Int63n(wbWheelSize-1)
			}
			id++
			ev := wbEvent{regMask: id, warpSlot: int32(rng.Intn(48)), gen: uint32(rng.Intn(4)), predMask: uint8(rng.Intn(256))}
			w.schedule(at, ev)
			m.schedule(at, ev)
		}
		now := int64(rng.Intn(1000))
		for step := 0; step < 2000; step++ {
			if rng.Intn(400) == 0 {
				w.reset()
				m.reset()
			}
			for k := 0; ; k++ {
				got, ok := takeWB(&w, now)
				want, wok := m.take(now)
				if ok != wok {
					t.Fatalf("seed %d cycle %d: retire %d: wheel has an event %t, model %t", seed, now, k, ok, wok)
				}
				if !ok {
					break
				}
				got.next = 0
				if got != want {
					t.Fatalf("seed %d cycle %d: retire %d is %+v, model says %+v", seed, now, k, got, want)
				}
				if rng.Intn(4) == 0 {
					sched(now)
				}
			}
			for n := rng.Intn(5); n > 0; n-- {
				sched(now)
			}
			if step%7 == 0 {
				var got []dueEvent
				w.forEach(func(at int64, ev *wbEvent) {
					e := *ev
					e.next = 0
					got = append(got, dueEvent{at, e})
				})
				if want := m.listing(); !slices.Equal(got, want) {
					t.Fatalf("seed %d cycle %d: forEach lists %d events, model %d, or in another order", seed, now, len(got), len(want))
				}
			}
			if w.count != m.held {
				t.Fatalf("seed %d cycle %d: wheel counts %d events, model holds %d", seed, now, w.count, m.held)
			}
			if len(w.nodes) > m.peak+1 {
				t.Fatalf("seed %d cycle %d: the arena has %d nodes, but at most %d events were in the wheel at once (plus the sentinel)",
					seed, now, len(w.nodes), m.peak)
			}
			now++
		}
	}
}

// TestWheelAllocs checks that a warmed wheel schedules and retires
// without allocating, before and after a reset: the arena and the free
// list carry the steady state, and reset keeps the arena's capacity.
func TestWheelAllocs(t *testing.T) {
	var w wbWheel
	now := int64(0)
	cycle := func() {
		for k := int64(0); k < 6; k++ {
			w.schedule(now+1+(k*13+now)%40, wbEvent{warpSlot: int32(k)})
		}
		for {
			if _, ok := takeWB(&w, now); !ok {
				break
			}
		}
		now++
	}
	for range 1000 {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("a warmed schedule/retire cycle allocates %v times, want 0", a)
	}
	w.reset()
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("after reset a schedule/retire cycle allocates %v times, want 0", a)
	}
}
