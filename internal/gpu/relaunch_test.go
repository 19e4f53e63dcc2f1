package gpu

import (
	"encoding/json"
	"fmt"
	"testing"

	"gpushare/internal/config"
	"gpushare/internal/mem/icnt"
)

// TestLaunchQueue drives the relaunch queue, a one-port icnt.Network
// with the run's CTALaunchLat, through growth and wraparound: every
// drained slot comes back in FIFO order, not before its ready cycle and
// on it, while the head walks around the buffer. Its checkpoint form is
// [{"sm":..,"slot":..,"at":..}] with at the ready cycle, and a decode
// brings back the same entries at the same ready cycles.
func TestLaunchQueue(t *testing.T) {
	lat := int64(config.Default().CTALaunchLat)
	q := relaunchQueue{icnt.New[relaunch](1, int(lat))}
	now, next, expect := int64(0), 0, 0
	var readyAt []int64 // per entry pushed
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(0, relaunch{sm: next % 14, slot: next % 8}, now)
			readyAt = append(readyAt, now+lat)
			next++
		}
		now++
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if p, ok := q.Pop(0, readyAt[expect]-1); ok {
				t.Fatalf("entry %d (%+v) released a cycle before it is ready", expect, p)
			}
			p, ok := q.Pop(0, readyAt[expect])
			if want := (relaunch{sm: expect % 14, slot: expect % 8}); !ok || p != want {
				t.Fatalf("Pop at cycle %d = %+v, %t; want entry %d, %+v", readyAt[expect], p, ok, expect, want)
			}
			expect++
		}
	}

	push(3)
	pop(2)
	push(20) // grows the ring with a wrapped head
	pop(10)
	push(40) // grows it again while non-contiguous
	pop(51)  // drains it
	if n := q.Pending(); n != 0 {
		t.Fatalf("drained queue holds %d entries", n)
	}

	push(2)
	push(1)
	b, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	want := "["
	for i := expect; i < next; i++ {
		if i > expect {
			want += ","
		}
		want += fmt.Sprintf(`{"sm":%d,"slot":%d,"at":%d}`, i%14, i%8, readyAt[i])
	}
	want += "]"
	if string(b) != want {
		t.Fatalf("checkpoint form = %s, want %s", b, want)
	}
	var d relaunchQueue
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if b2, _ := json.Marshal(d); string(b2) != want {
		t.Fatalf("decoded queue re-encodes as %s, want %s", b2, want)
	}
}
