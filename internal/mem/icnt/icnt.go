// Package icnt models the interconnect between SM clusters and memory
// partitions as a fixed-latency crossbar with per-destination FIFO
// delivery and a configurable per-cycle ejection bandwidth.
package icnt

// Packet is one message in flight.
type Packet[T any] struct {
	Payload T
	readyAt int64
}

// ring is one destination port's FIFO, stored as a power-of-two ring
// buffer so Push and Pop are O(1): the seed implementation shifted the
// whole backlog with copy(q, q[1:]) on every Pop, which is quadratic in
// backlog depth under congestion. A port that never empties still wraps
// in place: the buffer doubles only when the backlog itself outgrows it.
type ring[T any] struct {
	buf  []Packet[T]
	head int
	n    int
}

func (r *ring[T]) push(p Packet[T]) {
	if r.n == len(r.buf) {
		size := len(r.buf) * 2
		if size == 0 {
			size = 8
		}
		buf := make([]Packet[T], size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *ring[T]) pop() T {
	p := r.buf[r.head].Payload
	var zero T
	r.buf[r.head].Payload = zero // drop any reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// Network is a one-directional crossbar carrying payloads of one type:
// Push routes a packet to a destination port; Pop delivers packets in
// FIFO order once their latency has elapsed.
type Network[T any] struct {
	latency int64
	ports   []ring[T]
}

// New returns a network with the given number of destination ports and a
// fixed traversal latency in cycles.
func New[T any](ports int, latency int) *Network[T] {
	return &Network[T]{latency: int64(latency), ports: make([]ring[T], ports)}
}

// Push injects a packet toward dst at time now.
func (n *Network[T]) Push(dst int, payload T, now int64) {
	n.ports[dst].push(Packet[T]{Payload: payload, readyAt: now + n.latency})
}

// Pop removes and returns the payload of the oldest packet at dst whose
// latency has elapsed; ok is false if none is deliverable this cycle.
func (n *Network[T]) Pop(dst int, now int64) (payload T, ok bool) {
	q := &n.ports[dst]
	if q.n == 0 || q.buf[q.head].readyAt > now {
		return payload, false
	}
	return q.pop(), true
}

// Len returns the number of undelivered packets at dst.
func (n *Network[T]) Len(dst int) int { return n.ports[dst].n }

// Pending returns the number of undelivered packets across all ports.
func (n *Network[T]) Pending() int {
	total := 0
	for i := range n.ports {
		total += n.ports[i].n
	}
	return total
}
