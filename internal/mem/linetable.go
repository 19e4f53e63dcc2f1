package mem

import "slices"

// LineTable is an MSHR file: the outstanding miss lines of one cache,
// each with the waiters merged onto it, in merge order. Both levels use
// it: an SM's L1 (at most Config.L1MSHRs lines; waiters are load groups)
// and a partition's L2 (a few dozen lines in practice; waiters are the
// requests to answer). It is an open-addressed, linearly probed hash
// table at most half full — a lookup is a multiply and a compare or two,
// not a runtime map call. Deletion shifts the probe run back (no
// tombstones) and a closed entry's waiter array goes to the next line
// that opens, so steady state allocates nothing. Iteration is in slot
// order, deterministic for a given history (all the auditors need);
// checkpoints ask for Lines.
type LineTable[T any] struct {
	slots []lineSlot[T] // power-of-two length
	shift uint          // 32 - log2(len(slots))
	n     int
	free  [][]T // waiter arrays of closed entries, emptied
}

type lineSlot[T any] struct {
	waiters []T
	line    uint32
	live    bool
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
	t.slots, t.shift, t.n = make([]lineSlot[T], size), shift, 0
}

// Reset closes every entry, keeping the slot array and every waiter
// array for reuse, as a run of Take calls would.
func (t *LineTable[T]) Reset() {
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			t.free = append(t.free, s.waiters[:0])
			*s = lineSlot[T]{}
		}
	}
	t.n = 0
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

// Get returns line's waiters in merge order, nil if it is not outstanding.
func (t *LineTable[T]) Get(line uint32) []T {
	if i, ok := t.find(line); ok {
		return t.slots[i].waiters
	}
	return nil
}

// Add appends w to line's waiters and reports whether that opened the
// entry (a first miss) rather than merged into an outstanding one.
func (t *LineTable[T]) Add(line uint32, w T) bool {
	i, ok := t.find(line)
	if ok {
		t.slots[i].waiters = append(t.slots[i].waiters, w)
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
	var ws []T
	if n := len(t.free); n > 0 {
		ws, t.free = t.free[n-1], t.free[:n-1]
	}
	t.slots[i] = lineSlot[T]{waiters: append(ws, w), line: line, live: true}
	t.n++
	return true
}

// Take closes line's entry and returns its waiters (nil if it was not
// outstanding). The slice is only valid until the next Add.
func (t *LineTable[T]) Take(line uint32) []T {
	i, ok := t.find(line)
	if !ok {
		return nil
	}
	w := t.slots[i].waiters
	t.free = append(t.free, w[:0])
	t.n--
	// Close the gap: a later entry of the run moves into the hole when
	// its home is not past it, and the hole moves on.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].live; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].line))&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = lineSlot[T]{}
	return w
}

// ForEach calls f for every outstanding line, in slot order.
func (t *LineTable[T]) ForEach(f func(line uint32, waiters []T)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			f(s.line, s.waiters)
		}
	}
}

// Lines returns the outstanding lines in ascending address order, the
// order checkpoints serialize them in.
func (t *LineTable[T]) Lines() []uint32 {
	lines := make([]uint32, 0, t.n)
	t.ForEach(func(line uint32, _ []T) { lines = append(lines, line) })
	slices.Sort(lines)
	return lines
}
