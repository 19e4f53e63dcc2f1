package icnt

import "testing"

func TestFixedLatency(t *testing.T) {
	n := New[string](2, 10)
	n.Push(0, "a", 5)
	for now := int64(0); now < 15; now++ {
		if _, ok := n.Pop(0, now); ok {
			t.Fatalf("packet delivered at %d, before latency elapsed", now)
		}
	}
	if p, _ := n.Pop(0, 15); p != "a" {
		t.Fatalf("packet not delivered at 15: %v", p)
	}
}

func TestFIFOOrderAndBandwidth(t *testing.T) {
	n := New[int](1, 0)
	n.Push(0, 1, 0)
	n.Push(0, 2, 0)
	// One pop per cycle models ejection bandwidth: both are ready but
	// arrive in order.
	if p, _ := n.Pop(0, 0); p != 1 {
		t.Fatal("FIFO order violated")
	}
	if p, _ := n.Pop(0, 0); p != 2 {
		t.Fatal("second packet lost")
	}
	if _, ok := n.Pop(0, 0); ok {
		t.Fatal("phantom packet")
	}
}

func TestPortsIsolated(t *testing.T) {
	n := New[string](3, 0)
	n.Push(1, "x", 0)
	_, ok0 := n.Pop(0, 5)
	_, ok2 := n.Pop(2, 5)
	if ok0 || ok2 {
		t.Fatal("packet leaked to wrong port")
	}
	if p, _ := n.Pop(1, 5); p != "x" {
		t.Fatal("packet lost")
	}
	if n.Pending() != 0 {
		t.Fatalf("pending = %d", n.Pending())
	}
}

// TestPortThatNeverEmptiesStaysBounded: a port with a standing backlog
// wraps around its ring; the buffer is sized by the backlog, not by how
// many packets have ever passed through.
func TestPortThatNeverEmptiesStaysBounded(t *testing.T) {
	n := New[int](1, 160)
	for now := int64(0); now < 100000; now++ {
		n.Push(0, int(now), now)
		if p, ok := n.Pop(0, now); ok && int64(p) != now-160 {
			t.Fatalf("cycle %d: delivered packet %d, want %d", now, p, now-160)
		}
		if now > 160 && n.Len(0) != 160 {
			t.Fatalf("cycle %d: backlog %d, want a standing 160", now, n.Len(0))
		}
	}
	if c := len(n.ports[0].buf); c != 256 {
		t.Errorf("ring grew to %d slots for a backlog of 161, want 256", c)
	}
}
