package gpu

// pendingLaunch is a block relaunch waiting out the CTA dispatch latency.
type pendingLaunch struct {
	sm   int
	slot int
	at   int64
}

// launchQueue is a FIFO of pending block launches backed by a
// power-of-two ring buffer. The seed engine popped the head with
// pending = pending[1:], which strands the backing array's prefix and
// reallocates once the capacity is walked off; the ring reuses its
// storage for the lifetime of the run.
type launchQueue struct {
	buf  []pendingLaunch
	head int
	n    int
}

func (q *launchQueue) len() int { return q.n }

func (q *launchQueue) push(p pendingLaunch) {
	if q.n == len(q.buf) {
		size := len(q.buf) * 2
		if size == 0 {
			size = 16
		}
		buf := make([]pendingLaunch, size)
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// at returns the i'th oldest entry, 0 <= i < len.
func (q *launchQueue) at(i int) pendingLaunch { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// front returns the oldest entry; the queue must be non-empty.
func (q *launchQueue) front() *pendingLaunch { return &q.buf[q.head] }

// pop removes and returns the oldest entry; the queue must be non-empty.
func (q *launchQueue) pop() pendingLaunch {
	p := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}
