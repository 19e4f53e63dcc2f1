package smcore

// wbWheelSize is the span of the writeback timing wheel in cycles, a
// power of two. The wheel is the SM's only timer, and its contract is
// that every deadline lies inside one span: one scheduled during the
// tick of cycle now lies in [now+1, now+wbWheelSize), and one restored
// at cycle now in [now, now+wbWheelSize). config.Validate keeps every
// latency the SM times (SP/SFU plus register-bank conflicts, scratchpad
// plus bank conflicts, an L1 hit) at least 1 and below the span
// (TestWheelSpansEveryLatency), SM.RestoreState rejects a restored
// deadline outside it, and AuditScoreboard flags one that drifted out.
const wbWheelSize = 256

// wbWheel replaces the seed's map[int64][]wbEvent writeback queue with a
// timing wheel: slot at&(size-1) holds the events due at cycle `at`.
// Because every deadline lies inside one span (see wbWheelSize) and a
// slot's chain is drained on its own cycle, no two pending deadlines
// share a residue: a non-empty slot holds exactly the deadline being
// scheduled into it, so the per-cycle map insert, lookup and delete
// leave the hot path.
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
	count      int                // total scheduled events
}

// schedule enqueues ev for cycle at, which lies inside the wheel's span
// (see wbWheelSize), at the tail of its slot's chain.
func (w *wbWheel) schedule(at int64, ev wbEvent) {
	w.count++
	i := at & (wbWheelSize - 1)
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
	nd.regMask, nd.warpSlot, nd.next, nd.gen, nd.predMask, nd.load = ev.regMask, ev.warpSlot, 0, ev.gen, ev.predMask, ev.load
	if w.head[i] == 0 {
		w.head[i], w.slotAt[i] = n, at
	} else {
		w.nodes[w.tail[i]].next = n
	}
	w.tail[i] = n
}

// due reports whether an event is due at cycle now: the slot holds
// now's chain. It inlines into SM.Tick, which skips processWritebacks on
// a cycle with nothing due.
func (w *wbWheel) due(now int64) bool {
	i := now & (wbWheelSize - 1)
	return w.head[i] != 0 && w.slotAt[i] == now
}

// next copies the first event of the chain due at cycle now into *ev,
// unlinks it and puts its node back on the free list, reporting whether
// there was one. next inlines into processWritebacks, whose ev stays on
// its stack: the copy is the only one per event.
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

// reset drops every scheduled event, keeping the arena's capacity.
func (w *wbWheel) reset() {
	w.nodes = w.nodes[:0]
	w.head = [wbWheelSize]int32{}
	w.slotAt = [wbWheelSize]int64{}
	w.free = 0
	w.count = 0
}

// forEach visits every scheduled event with its deadline, in one
// deterministic order: wheel slots by index, each chain head to tail.
// Read-only; the checkpoint serialises in this order (retire order
// within a cycle is commutative, so only serialisation needs one) and
// the scoreboard audit shares the walk.
func (w *wbWheel) forEach(f func(at int64, ev *wbEvent)) {
	for i, n := range w.head {
		for ; n != 0; n = w.nodes[n].next {
			f(w.slotAt[i], &w.nodes[n])
		}
	}
}
