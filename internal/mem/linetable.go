package mem

import "slices"

// LineTable is an MSHR file: the outstanding miss lines of one cache,
// each with the waiters merged onto it, in merge order. Both levels use
// it: an SM's L1 (at most Config.L1MSHRs lines; waiters name the load
// and destination register each line completes) and a partition's L2
// (a few dozen lines in practice; waiters are the requests to answer). It is an open-addressed, linearly probed hash
// table at most half full — a lookup is a multiply and a compare or two,
// not a runtime map call. Deletion shifts the probe run back (no
// tombstones). Iteration is in slot order, deterministic for a given
// history (all the auditors need); checkpoints ask for AppendLines.
//
// The waiters live in one arena per table, nodes: each line's waiters
// are a FIFO chain through the nodes' next links, and a closed line's
// chain goes on a free list that the next Add takes from. The arena
// grows only to the table's peak number of waiters at once, and Reset
// keeps its capacity, so steady state allocates nothing. Link 0 means
// "none": node 0 is a sentinel that never holds a waiter.
type LineTable[T any] struct {
	slots []lineSlot // power-of-two length
	shift uint       // 32 - log2(len(slots))
	n     int
	nodes []waiterNode[T]
	free  int32 // free-list head, chained through next
	out   []T   // the waiters Get, Take and ForEach hand out
}

type lineSlot struct {
	head, tail int32 // the line's waiter chain, oldest first
	line       uint32
	live       bool
}

type waiterNode[T any] struct {
	w    T
	next int32
}

// NewLineTable returns an empty table. It starts small — a kernel that
// never misses should not pay for MSHRs — and doubles as lines open.
func NewLineTable[T any]() *LineTable[T] {
	t := &LineTable[T]{}
	t.resize(8)
	return t
}

// resize replaces the slot array with an empty one of at least min slots.
func (t *LineTable[T]) resize(min int) {
	size, shift := 8, uint(29)
	for size < min {
		size, shift = size*2, shift-1
	}
	t.slots, t.shift, t.n = make([]lineSlot, size), shift, 0
}

// Reset closes every entry, keeping the slot array and the waiter
// arena for reuse.
func (t *LineTable[T]) Reset() {
	clear(t.slots)
	t.n = 0
	t.nodes, t.free = t.nodes[:0], 0
}

// home is line's preferred slot: the top bits of a multiplicative hash,
// which spreads addresses whose low (offset and partition) bits agree.
func (t *LineTable[T]) home(line uint32) int { return int(line * 0x9E3779B1 >> t.shift) }

// find returns line's slot, or the empty slot that ends its probe run.
func (t *LineTable[T]) find(line uint32) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.live {
			return i, false
		} else if s.line == line {
			return i, true
		}
	}
}

// Len returns the number of outstanding lines.
func (t *LineTable[T]) Len() int { return t.n }

// Has reports whether line is outstanding.
func (t *LineTable[T]) Has(line uint32) bool {
	_, ok := t.find(line)
	return ok
}

// gather returns the waiters of the chain from node n, in merge order,
// in the table's one result buffer.
func (t *LineTable[T]) gather(n int32) []T {
	t.out = t.out[:0]
	for ; n != 0; n = t.nodes[n].next {
		t.out = append(t.out, t.nodes[n].w)
	}
	return t.out
}

// Get returns line's waiters in merge order, nil if it is not
// outstanding. The slice is only valid until the table's next call.
func (t *LineTable[T]) Get(line uint32) []T {
	if i, ok := t.find(line); ok {
		return t.gather(t.slots[i].head)
	}
	return nil
}

// Add appends w to line's waiters and reports whether that opened the
// entry (a first miss) rather than merged into an outstanding one.
func (t *LineTable[T]) Add(line uint32, w T) bool {
	n := t.free
	if n != 0 {
		t.free = t.nodes[n].next
		t.nodes[n] = waiterNode[T]{w: w}
	} else {
		if len(t.nodes) == 0 {
			t.nodes = append(t.nodes, waiterNode[T]{}) // the sentinel
		}
		n = int32(len(t.nodes))
		t.nodes = append(t.nodes, waiterNode[T]{w: w})
	}
	i, ok := t.find(line)
	if ok {
		s := &t.slots[i]
		t.nodes[s.tail].next = n
		s.tail = n
		return false
	}
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.resize(2 * len(old))
		for k := range old {
			if s := &old[k]; s.live {
				j, _ := t.find(s.line)
				t.slots[j] = *s
				t.n++
			}
		}
		i, _ = t.find(line)
	}
	t.slots[i] = lineSlot{head: n, tail: n, line: line, live: true}
	t.n++
	return true
}

// Take closes line's entry and returns its waiters (nil if it was not
// outstanding). The slice is only valid until the table's next call.
func (t *LineTable[T]) Take(line uint32) []T {
	i, ok := t.find(line)
	if !ok {
		return nil
	}
	s := t.slots[i]
	w := t.gather(s.head)
	t.nodes[s.tail].next = t.free
	t.free = s.head
	t.n--
	// Close the gap: a later entry of the run moves into the hole when
	// its home is not past it, and the hole moves on.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].live; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].line))&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = lineSlot{}
	return w
}

// ForEach calls f for every outstanding line, in slot order. The
// waiters slice is only valid during the call, and f must not call
// into the table.
func (t *LineTable[T]) ForEach(f func(line uint32, waiters []T)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			f(s.line, t.gather(s.head))
		}
	}
}

// AppendLines appends the outstanding lines to dst in ascending address
// order, the order checkpoints serialize them in.
func (t *LineTable[T]) AppendLines(dst []uint32) []uint32 {
	start := len(dst)
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			dst = append(dst, s.line)
		}
	}
	slices.Sort(dst[start:])
	return dst
}
