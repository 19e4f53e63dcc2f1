package smcore

import "slices"

// wbWheelSize is the span of the writeback timing wheel in cycles. It
// must be a power of two and exceed every writeback latency the SM can
// schedule (SP/SFU/L1-hit/scratchpad latencies plus conflict penalties);
// rarer, longer deadlines spill into the overflow map.
const wbWheelSize = 256

// wbWheel replaces the seed's map[int64][]wbEvent writeback queue with a
// timing wheel: slot at&(size-1) holds the events due at cycle `at`.
// Because events are only scheduled for (now, now+size) cycles ahead,
// in-window deadlines can never collide on a residue, and each slot's
// backing array is reused after it fires — the per-cycle map insert,
// lookup, and delete (and their allocations) disappear from the hot path.
type wbWheel struct {
	slots    [wbWheelSize][]wbEvent
	slotAt   [wbWheelSize]int64 // deadline currently occupying each slot
	overflow map[int64][]wbEvent
	count    int // total scheduled events across slots and overflow
}

// schedule enqueues ev for cycle at (scheduled from cycle now).
func (w *wbWheel) schedule(now, at int64, ev wbEvent) {
	w.count++
	i := at & (wbWheelSize - 1)
	if at-now >= wbWheelSize || (len(w.slots[i]) > 0 && w.slotAt[i] != at) {
		if w.overflow == nil {
			w.overflow = make(map[int64][]wbEvent)
		}
		w.overflow[at] = append(w.overflow[at], ev)
		return
	}
	w.slots[i] = append(w.slots[i], ev)
	w.slotAt[i] = at
}

// reset drops every scheduled event, keeping each slot's backing array.
func (w *wbWheel) reset() {
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.slotAt = [wbWheelSize]int64{}
	clear(w.overflow)
	w.count = 0
}

// forEach visits every scheduled event with its deadline, in one
// deterministic order: wheel slots by index, then overflow deadlines
// ascending. Read-only; the checkpoint serialises in this order (retire
// order within a cycle is commutative, so only serialisation needs
// one) and the scoreboard audit shares the walk.
func (w *wbWheel) forEach(f func(at int64, ev *wbEvent)) {
	for i := range w.slots {
		for k := range w.slots[i] {
			f(w.slotAt[i], &w.slots[i][k])
		}
	}
	ats := make([]int64, 0, len(w.overflow))
	for at := range w.overflow {
		ats = append(ats, at)
	}
	slices.Sort(ats)
	for _, at := range ats {
		evs := w.overflow[at]
		for k := range evs {
			f(at, &evs[k])
		}
	}
}
