package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gpushare/internal/fault"
	"gpushare/internal/simerr"
)

// wantCheckpointErr asserts err is a typed KindCheckpoint SimError.
func wantCheckpointErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want a decode error, got nil")
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("want *simerr.SimError, got %T: %v", err, err)
	}
	if se.Kind != simerr.KindCheckpoint {
		t.Fatalf("want KindCheckpoint, got %v: %v", se.Kind, err)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xa5}, 4096)} {
		blob := Encode(payload)
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip mismatch for %d-byte payload", len(payload))
		}
	}
}

// TestSealInPlace: a payload written behind HeaderSize reserved bytes
// and sealed there is Encode's container, in the caller's buffer.
func TestSealInPlace(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xa5}, 4096)} {
		buf := append(make([]byte, HeaderSize, HeaderSize+len(payload)), payload...)
		got := Seal(buf)
		if &got[0] != &buf[0] {
			t.Fatal("Seal copied the buffer")
		}
		if !bytes.Equal(got, Encode(payload)) {
			t.Fatalf("sealed %d-byte payload differs from Encode's container", len(payload))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode([]byte("the quick brown fox jumps over the lazy dog"))
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"short header", valid[:HeaderSize-1]},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"future version", func() []byte {
			b := append([]byte(nil), valid...)
			b[4] = 0xff
			return b
		}()},
		{"truncated payload", valid[:len(valid)-5]},
		{"trailing garbage", append(append([]byte(nil), valid...), 0xde, 0xad)},
		{"flipped payload bit", func() []byte {
			b := append([]byte(nil), valid...)
			b[HeaderSize+3] ^= 0x01
			return b
		}()},
		{"flipped digest bit", func() []byte {
			b := append([]byte(nil), valid...)
			b[16] ^= 0x80
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.blob)
			wantCheckpointErr(t, err)
		})
	}
}

func TestDirSinkPutGetLatest(t *testing.T) {
	sink, err := NewDirSink(filepath.Join(t.TempDir(), "ck"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int64{100, 300, 200} {
		if err := sink.Put(c, Encode([]byte{byte(c / 100)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.List(); len(got) != 3 || got[0] != 100 || got[1] != 200 || got[2] != 300 {
		t.Fatalf("List = %v, want ascending [100 200 300]", got)
	}
	blob, err := sink.Get(200)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := Decode(blob); len(p) != 1 || p[0] != 2 {
		t.Fatalf("Get(200) payload = %v, want [2]", p)
	}
	cycle, blob, ok := sink.Latest()
	if !ok || cycle != 300 {
		t.Fatalf("Latest = (%d, ok=%v), want cycle 300", cycle, ok)
	}
	if p, _ := Decode(blob); len(p) != 1 || p[0] != 3 {
		t.Fatalf("Latest payload = %v, want [3]", p)
	}
}

func TestDirSinkKeepPrunes(t *testing.T) {
	sink, err := NewDirSink(filepath.Join(t.TempDir(), "ck"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(1); c <= 5; c++ {
		if err := sink.Put(c*10, Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.List(); len(got) != 2 || got[0] != 40 || got[1] != 50 {
		t.Fatalf("List = %v, want [40 50]", got)
	}
}

// TestDirSinkLatestSkipsCorrupt proves the recovery ladder: a torn
// newest checkpoint is discarded and Latest falls back to the previous
// good one; with every checkpoint torn, ok=false means cold start.
func TestDirSinkLatestSkipsCorrupt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	sink, err := NewDirSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Put(100, Encode([]byte("good"))); err != nil {
		t.Fatal(err)
	}
	if err := sink.Put(200, Encode([]byte("soon torn"))); err != nil {
		t.Fatal(err)
	}
	// Tear the newest file, as a crash mid-disk-flush would.
	if err := os.Truncate(filepath.Join(dir, ckName(200)), 7); err != nil {
		t.Fatal(err)
	}
	cycle, blob, ok := sink.Latest()
	if !ok || cycle != 100 {
		t.Fatalf("Latest = (%d, ok=%v), want fallback to 100", cycle, ok)
	}
	if p, _ := Decode(blob); string(p) != "good" {
		t.Fatalf("fallback payload = %q, want %q", p, "good")
	}
	if got := sink.List(); len(got) != 1 || got[0] != 100 {
		t.Fatalf("corrupt checkpoint not deleted: List = %v", got)
	}
	// Tear the survivor too: recovery degrades to cycle 0.
	if err := os.Truncate(filepath.Join(dir, ckName(100)), 3); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sink.Latest(); ok {
		t.Fatal("Latest on all-corrupt store: want ok=false (cold start)")
	}
}

func TestDirSinkGetValidates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	sink, err := NewDirSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Put(50, Encode([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, ckName(50)), 9); err != nil {
		t.Fatal(err)
	}
	_, err = sink.Get(50)
	wantCheckpointErr(t, err)
}

func TestDirSinkClear(t *testing.T) {
	sink, err := NewDirSink(filepath.Join(t.TempDir(), "ck"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(1); c <= 3; c++ {
		if err := sink.Put(c, Encode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	sink.Clear()
	if got := sink.List(); len(got) != 0 {
		t.Fatalf("List after Clear = %v, want empty", got)
	}
	if _, _, ok := sink.Latest(); ok {
		t.Fatal("Latest after Clear: want ok=false")
	}
}

// recoverCrashPoint runs f and returns the *CrashPoint it panics with,
// or nil if it returns normally.
func recoverCrashPoint(f func()) (cp *CrashPoint) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if cp, ok = r.(*CrashPoint); !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

// TestDirSinkCrashPoints drives both injected crash points and asserts
// the resulting on-disk state recovers correctly: a torn checkpoint is
// skipped (fall back to the previous good one), a crash after a durable
// write leaves the new checkpoint loadable.
func TestDirSinkCrashPoints(t *testing.T) {
	t.Run("torn", func(t *testing.T) {
		sink, err := NewDirSink(filepath.Join(t.TempDir(), "ck"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Put(10, Encode([]byte("good"))); err != nil {
			t.Fatal(err)
		}
		sink.Faults = &fault.Plan{Kind: fault.TornCheckpoint, Nth: 1}
		cp := recoverCrashPoint(func() { sink.Put(20, Encode([]byte("torn"))) })
		if cp == nil || cp.Cycle != 20 {
			t.Fatalf("want CrashPoint at cycle 20, got %v", cp)
		}
		if !sink.Faults.Injected {
			t.Fatal("fault plan did not record the injection")
		}
		sink.Faults = nil
		cycle, blob, ok := sink.Latest()
		if !ok || cycle != 10 {
			t.Fatalf("Latest after torn crash = (%d, ok=%v), want fallback to 10", cycle, ok)
		}
		if p, _ := Decode(blob); string(p) != "good" {
			t.Fatalf("payload after recovery = %q, want %q", p, "good")
		}
	})
	t.Run("after-write", func(t *testing.T) {
		sink, err := NewDirSink(filepath.Join(t.TempDir(), "ck"), 0)
		if err != nil {
			t.Fatal(err)
		}
		sink.Faults = &fault.Plan{Kind: fault.CrashAfterCheckpoint, Nth: 1}
		cp := recoverCrashPoint(func() { sink.Put(30, Encode([]byte("durable"))) })
		if cp == nil || cp.Cycle != 30 {
			t.Fatalf("want CrashPoint at cycle 30, got %v", cp)
		}
		sink.Faults = nil
		cycle, blob, ok := sink.Latest()
		if !ok || cycle != 30 {
			t.Fatalf("Latest after post-write crash = (%d, ok=%v), want 30", cycle, ok)
		}
		if p, _ := Decode(blob); string(p) != "durable" {
			t.Fatalf("payload = %q, want %q", p, "durable")
		}
	})
}

func TestMemSink(t *testing.T) {
	sink := NewMemSink()
	if _, _, ok := sink.Latest(); ok {
		t.Fatal("empty MemSink: want ok=false")
	}
	src := []byte("mutate me")
	if err := sink.Put(5, src); err != nil {
		t.Fatal(err)
	}
	src[0] = 'X' // Put must have copied
	if err := sink.Put(15, []byte("later")); err != nil {
		t.Fatal(err)
	}
	if got := sink.Get(5); string(got) != "mutate me" {
		t.Fatalf("Get(5) = %q, want the un-mutated copy", got)
	}
	cycle, blob, ok := sink.Latest()
	if !ok || cycle != 15 || string(blob) != "later" {
		t.Fatalf("Latest = (%d, %q, ok=%v), want (15, later, true)", cycle, blob, ok)
	}
	if got := sink.List(); len(got) != 2 || got[0] != 5 || got[1] != 15 {
		t.Fatalf("List = %v, want [5 15]", got)
	}
}

// FuzzCheckpointDecode asserts that for arbitrary input bytes, Decode
// either returns a typed KindCheckpoint error or a payload whose
// re-encoding reproduces the input exactly — i.e. no mutated container
// can ever be accepted as a different-but-valid checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(Encode(nil))
	f.Add(Encode([]byte("seed payload")))
	f.Add(Encode(bytes.Repeat([]byte{0x5a}, 257)))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Decode(data)
		if err != nil {
			se, ok := simerr.As(err)
			if !ok || se.Kind != simerr.KindCheckpoint {
				t.Fatalf("decode error is not a typed KindCheckpoint SimError: %T %v", err, err)
			}
			return
		}
		if !bytes.Equal(Encode(payload), data) {
			t.Fatalf("accepted container does not round-trip: %d-byte input, %d-byte payload", len(data), len(payload))
		}
	})
}

func BenchmarkCheckpointRoundtrip(b *testing.B) {
	// Representative of a mid-size machine snapshot.
	payload := bytes.Repeat([]byte("warp state, caches, queues; "), 8192)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob := Encode(payload)
		if _, err := Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}
