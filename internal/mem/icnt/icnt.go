// Package icnt models the interconnect between SM clusters and memory
// partitions as a fixed-latency crossbar with per-destination FIFO
// delivery and a configurable per-cycle ejection bandwidth.
package icnt

import "math"

// Packet is one message in flight.
type Packet struct {
	Payload any
	readyAt int64
}

// ring is one destination port's FIFO, stored as a power-of-two ring
// buffer so Push and Pop are O(1): the seed implementation shifted the
// whole backlog with copy(q, q[1:]) on every Pop, which is quadratic in
// backlog depth under congestion.
type ring struct {
	buf  []Packet
	head int
	n    int
}

func (r *ring) push(p Packet) {
	if r.n == len(r.buf) {
		size := len(r.buf) * 2
		if size == 0 {
			size = 8
		}
		buf := make([]Packet, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *ring) front() *Packet { return &r.buf[r.head] }

func (r *ring) pop() any {
	p := r.buf[r.head].Payload
	r.buf[r.head].Payload = nil // drop the reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// Network is a one-directional crossbar: Push routes a packet to a
// destination port; Pop delivers packets in FIFO order once their latency
// has elapsed.
type Network struct {
	latency int64
	ports   []ring
}

// New returns a network with the given number of destination ports and a
// fixed traversal latency in cycles.
func New(ports int, latency int) *Network {
	return &Network{latency: int64(latency), ports: make([]ring, ports)}
}

// Push injects a packet toward dst at time now.
func (n *Network) Push(dst int, payload any, now int64) {
	n.ports[dst].push(Packet{Payload: payload, readyAt: now + n.latency})
}

// Pop removes and returns the payload of the oldest packet at dst whose
// latency has elapsed, or nil if none is deliverable this cycle.
func (n *Network) Pop(dst int, now int64) any {
	q := &n.ports[dst]
	if q.n == 0 || q.front().readyAt > now {
		return nil
	}
	return q.pop()
}

// NextReadyPort returns the earliest future cycle at which dst could
// deliver a packet, or math.MaxInt64 when the port is empty. A packet
// that is already deliverable (held back only by the one-per-cycle
// ejection bandwidth) reports now+1. The memory system's partition
// horizons use it to bound a partition's next request arrival.
func (n *Network) NextReadyPort(dst int, now int64) int64 {
	q := &n.ports[dst]
	if q.n == 0 {
		return math.MaxInt64
	}
	at := q.front().readyAt
	if at <= now {
		at = now + 1
	}
	return at
}

// Latency returns the network's fixed traversal latency in cycles.
func (n *Network) Latency() int64 { return n.latency }

// ForEach calls f for every undelivered packet payload, oldest first
// within each port. Read-only; used by the invariant auditor.
func (n *Network) ForEach(f func(payload any)) {
	for i := range n.ports {
		q := &n.ports[i]
		for j := 0; j < q.n; j++ {
			f(q.buf[(q.head+j)&(len(q.buf)-1)].Payload)
		}
	}
}

// Pending returns the number of undelivered packets across all ports.
func (n *Network) Pending() int {
	total := 0
	for i := range n.ports {
		total += n.ports[i].n
	}
	return total
}
