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
// in-window deadlines can never collide on a residue, so the per-cycle
// map insert, lookup and delete leave the hot path.
//
// The events themselves live in one arena per SM, nodes: each slot is a
// FIFO chain through the nodes' next links (head to tail), and a retired
// event's node goes on a free list that the next schedule takes from.
// The arena therefore grows only to the SM's peak number of writebacks
// in flight at once — bounded by its warps' outstanding results, tens
// of events — not to a per-slot peak burst in each of the 256 slots,
// and reset keeps its capacity. Link 0 means "none": node 0 is a
// sentinel that never holds an event, so the zero wbWheel is empty.
type wbWheel struct {
	nodes      []wbEvent
	head, tail [wbWheelSize]int32 // each slot's chain; head 0 = empty slot
	slotAt     [wbWheelSize]int64 // deadline of the chain in each slot
	free       int32              // free-list head, chained through next
	overflow   map[int64][]wbEvent
	count      int // total scheduled events across slots and overflow
}

// schedule enqueues ev for cycle at (scheduled from cycle now): at the
// tail of its slot's chain, or in the overflow map when the deadline is
// a wheel span or more ahead or the slot holds another deadline.
func (w *wbWheel) schedule(now, at int64, ev wbEvent) {
	w.count++
	i := at & (wbWheelSize - 1)
	if at-now >= wbWheelSize || (w.head[i] != 0 && w.slotAt[i] != at) {
		if w.overflow == nil {
			w.overflow = make(map[int64][]wbEvent)
		}
		w.overflow[at] = append(w.overflow[at], ev)
		return
	}
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
	} else {
		if len(w.nodes) == 0 {
			w.nodes = append(w.nodes, wbEvent{}) // the sentinel
		}
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wbEvent{})
	}
	// Field by field: a whole-struct store of ev reloads it in 16-byte
	// halves from the narrower stores that spilled it, which defeats
	// store forwarding and stalls every schedule.
	nd := &w.nodes[n]
	nd.regMask, nd.group, nd.warpSlot, nd.next, nd.gen, nd.predMask = ev.regMask, ev.group, ev.warpSlot, 0, ev.gen, ev.predMask
	if w.head[i] == 0 {
		w.head[i], w.slotAt[i] = n, at
	} else {
		w.nodes[w.tail[i]].next = n
	}
	w.tail[i] = n
}

// due reports whether an event may be due at cycle now: the slot holds
// now's chain, or the overflow map holds anything. It inlines into
// SM.Tick, which skips processWritebacks on a cycle with nothing due.
func (w *wbWheel) due(now int64) bool {
	i := now & (wbWheelSize - 1)
	return w.head[i] != 0 && w.slotAt[i] == now || len(w.overflow) > 0
}

// next copies the first event of the chain due at cycle now into *ev,
// unlinks it and puts its node back on the free list, reporting whether
// there was one. Retiring *ev may then schedule (and grow the arena)
// freely; an event scheduled for now meanwhile joins the chain and is
// taken in the same drain. next inlines into processWritebacks, whose
// ev stays on its stack: the copy is the only one per event.
func (w *wbWheel) next(now int64, ev *wbEvent) bool {
	i := now & (wbWheelSize - 1)
	n := w.head[i]
	if n == 0 || w.slotAt[i] != now {
		return false
	}
	nd := &w.nodes[n]
	w.head[i] = nd.next
	*ev = *nd
	nd.next = w.free
	w.free = n
	w.count--
	return true
}

// nextOverflow is next for the overflow list due at now, in the order
// its events were scheduled; processWritebacks asks it only once the
// chain is empty.
func (w *wbWheel) nextOverflow(now int64, ev *wbEvent) bool {
	evs, ok := w.overflow[now]
	if !ok {
		return false
	}
	*ev = evs[0]
	if len(evs) == 1 {
		delete(w.overflow, now)
	} else {
		w.overflow[now] = evs[1:]
	}
	w.count--
	return true
}

// reset drops every scheduled event, keeping the arena's capacity.
func (w *wbWheel) reset() {
	w.nodes = w.nodes[:0]
	w.head = [wbWheelSize]int32{}
	w.slotAt = [wbWheelSize]int64{}
	w.free = 0
	clear(w.overflow)
	w.count = 0
}

// forEach visits every scheduled event with its deadline, in one
// deterministic order: wheel slots by index (each chain head to tail),
// then overflow deadlines ascending. Read-only; the checkpoint
// serialises in this order (retire order within a cycle is commutative,
// so only serialisation needs one) and the scoreboard audit shares the
// walk.
func (w *wbWheel) forEach(f func(at int64, ev *wbEvent)) {
	for i, n := range w.head {
		for ; n != 0; n = w.nodes[n].next {
			f(w.slotAt[i], &w.nodes[n])
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
