package smcore

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
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

// takeWB takes the next event due at now the way SM.Tick and
// processWritebacks do: nothing unless due says so, then the slot's
// chain first and the overflow list after it.
func takeWB(w *wbWheel, now int64) (ev wbEvent, ok bool) {
	ok = w.due(now) && (w.next(now, &ev) || len(w.overflow) > 0 && w.nextOverflow(now, &ev))
	return ev, ok
}

// wheelModel is the reference the wheel is held to: every scheduled
// event keyed by deadline, in scheduling order, each marked with whether
// the wheel must have put it in the overflow map. That is decided from
// the model's own contents: a deadline a wheel span or more ahead, or a
// residue some other in-wheel deadline holds. near counts the in-wheel
// events and peak its maximum since the last reset, the most nodes the
// arena may need.
type wheelModel struct {
	evs        map[int64][]modelEvent
	near, peak int
}

type modelEvent struct {
	ev  wbEvent
	far bool
}

func (m *wheelModel) schedule(now, at int64, ev wbEvent) {
	far := at-now >= wbWheelSize
	for d, evs := range m.evs {
		for _, e := range evs {
			if !e.far && d != at && d&(wbWheelSize-1) == at&(wbWheelSize-1) {
				far = true
			}
		}
	}
	m.evs[at] = append(m.evs[at], modelEvent{ev, far})
	if !far {
		m.near++
		m.peak = max(m.peak, m.near)
	}
}

// take removes and returns the event the wheel must retire next at now:
// the first in-wheel event due then, else the first overflow one.
func (m *wheelModel) take(now int64) (wbEvent, bool) {
	evs := m.evs[now]
	if len(evs) == 0 {
		return wbEvent{}, false
	}
	k := slices.IndexFunc(evs, func(e modelEvent) bool { return !e.far })
	if k < 0 {
		k = 0
	} else {
		m.near--
	}
	ev := evs[k].ev
	if m.evs[now] = slices.Delete(evs, k, k+1); len(m.evs[now]) == 0 {
		delete(m.evs, now)
	}
	return ev, true
}

func (m *wheelModel) reset() {
	clear(m.evs)
	m.near, m.peak = 0, 0
}

type dueEvent struct {
	at int64
	ev wbEvent
}

// listing is forEach's order: in-wheel events by slot index, FIFO within
// a slot, then overflow deadlines ascending, FIFO within a deadline.
func (m *wheelModel) listing() []dueEvent {
	var near, far []dueEvent
	ats := make([]int64, 0, len(m.evs))
	for at := range m.evs {
		ats = append(ats, at)
	}
	slices.Sort(ats)
	for _, at := range ats {
		for _, e := range m.evs[at] {
			if e.far {
				far = append(far, dueEvent{at, e.ev})
			} else {
				near = append(near, dueEvent{at, e.ev})
			}
		}
	}
	// Stable: one slot holds one deadline, so FIFO order survives.
	slices.SortStableFunc(near, func(a, b dueEvent) int {
		return cmp.Compare(a.at&(wbWheelSize-1), b.at&(wbWheelSize-1))
	})
	return append(near, far...)
}

func (m *wheelModel) count() int {
	n := 0
	for _, evs := range m.evs {
		n += len(evs)
	}
	return n
}

// TestWheelMatchesModel drives the wheel and the model with the same
// random schedules, per-cycle drains, resets and walks, and demands the
// same events retire in the same order and forEach list the same events
// in the same order. The schedules cover short latencies, deadlines a
// wheel span and more ahead (the overflow map, also for a deadline
// whose slot later fills), residue collisions (a skipped drain strands
// a slot's deadline, so a later in-window deadline on its residue
// overflows), retires that schedule — into the slot being drained
// (due now, taken in the same drain) and elsewhere, reusing the node
// just freed or growing the arena mid-drain — and resets. The arena may
// never hold more nodes than events were in the wheel at once: a
// retired node is reused through the free list.
func TestWheelMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w wbWheel
		m := &wheelModel{evs: map[int64][]modelEvent{}}
		id := uint64(0)
		newEv := func() wbEvent {
			id++
			return wbEvent{regMask: id, warpSlot: int32(rng.Intn(48)), gen: uint32(rng.Intn(4)), predMask: uint8(rng.Intn(256))}
		}
		sched := func(now, at int64) {
			ev := newEv()
			w.schedule(now, at, ev)
			m.schedule(now, at, ev)
		}
		latency := func() int64 {
			switch r := rng.Intn(20); {
			case r < 14:
				return 1 + rng.Int63n(24)
			case r < 17:
				return wbWheelSize - 2 + rng.Int63n(4) // either side of the span
			default:
				return 1 + rng.Int63n(3*wbWheelSize)
			}
		}
		now := int64(rng.Intn(1000))
		for step := 0; step < 2000; step++ {
			if rng.Intn(400) == 0 {
				w.reset()
				m.reset()
			}
			if rng.Intn(50) != 0 { // a skipped drain strands this cycle's events
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
					switch rng.Intn(8) {
					case 0:
						sched(now, now) // into the slot being drained
					case 1, 2:
						sched(now, now+latency())
					}
				}
			}
			now++
			for n := rng.Intn(5); n > 0; n-- {
				sched(now, now+latency())
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
			if w.count != m.count() {
				t.Fatalf("seed %d cycle %d: wheel counts %d events, model holds %d", seed, now, w.count, m.count())
			}
			if len(w.nodes) > m.peak+1 {
				t.Fatalf("seed %d cycle %d: the arena has %d nodes, but at most %d events were in the wheel at once (plus the sentinel)",
					seed, now, len(w.nodes), m.peak)
			}
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
			w.schedule(now, now+1+(k*13+now)%40, wbEvent{warpSlot: int32(k)})
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
