package icnt

// ForEachAt calls f for every undelivered packet with its destination
// port and absolute delivery-ready cycle, oldest first within each
// port. Read-only; used by the invariant auditor and by the checkpoint
// serializer (which must preserve remaining latency, not just payload
// order).
func (n *Network[T]) ForEachAt(f func(dst int, payload T, readyAt int64)) {
	for i := range n.ports {
		q := &n.ports[i]
		for j := 0; j < q.n; j++ {
			p := &q.buf[(q.head+j)&(len(q.buf)-1)]
			f(i, p.Payload, p.readyAt)
		}
	}
}

// Clear drops every undelivered packet. The checkpoint restorer calls
// it first so that restoring onto a previously used network (a retried
// or re-probed machine) never leaves stale traffic behind the injected
// snapshot.
func (n *Network[T]) Clear() {
	for i := range n.ports {
		q := &n.ports[i]
		for q.n > 0 {
			q.pop()
		}
	}
}

// Inject enqueues a packet at dst with an absolute ready cycle,
// bypassing the latency adder. Packets must be injected in the same
// oldest-first order ForEachAt reported them, since each port delivers
// in FIFO order. Used by the checkpoint restorer only.
func (n *Network[T]) Inject(dst int, payload T, readyAt int64) {
	n.ports[dst].push(Packet[T]{Payload: payload, readyAt: readyAt})
}
