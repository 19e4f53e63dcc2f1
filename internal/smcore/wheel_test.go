package smcore

import (
	"testing"
	"unsafe"
)

// TestWBEventSize pins the writeback event at 32 bytes: every issued
// instruction with a result schedules one, and the timing wheel's
// buckets hold them by value, so padding between fields is paid on
// every schedule. The checkpoint form (WBCheckpoint) is a separate
// type, so the layout does not reach checkpoint bytes.
func TestWBEventSize(t *testing.T) {
	if got := unsafe.Sizeof(wbEvent{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(wbEvent{}) = %d, want 32 (fields widest first: int, uint64, pointer, uint32, uint8)", got)
	}
}
