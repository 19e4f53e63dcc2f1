package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	N int `json:"n"`
}

// keys lists the replayed records' keys in order.
func keys(recs []Record) string {
	var ks []string
	for _, rec := range recs {
		ks = append(ks, rec.Key)
	}
	return strings.Join(ks, ",")
}

// reopen closes l and opens its directory again.
func reopen(t *testing.T, l *Log) (*Log, []Record) {
	t.Helper()
	l.Close()
	l2, pending, err := Open(l.Path())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l2.Close)
	return l2, pending
}

// TestOpenReplaysPending covers the accept/done model: only accepts
// without a done replay, in admission order across reopens, with their
// payloads intact, and numbering continues after the highest record.
func TestOpenReplaysPending(t *testing.T) {
	l, pending, err := Open(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal replays %d records, want 0", len(pending))
	}
	// Names sort against admission order, so a directory listing's order
	// cannot pass for it.
	for i, k := range []string{"k4", "k3", "k2", "k1", "k0"} {
		if err := l.Accept(k, payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"k1", "k3"} {
		if err := l.Done(k); err != nil {
			t.Fatal(err)
		}
	}
	l, pending = reopen(t, l)
	if got, want := keys(pending), "k4,k2,k0"; got != want {
		t.Fatalf("pending = %s, want %s (admission order, dones retired)", got, want)
	}
	for i, rec := range pending {
		var p payload
		if err := json.Unmarshal(rec.Req, &p); err != nil || p.N != 2*i {
			t.Fatalf("payload of %s = %s (%v), want n=%d", rec.Key, rec.Req, err, 2*i)
		}
	}

	// Admissions after a reopen go after everything replayed, even under
	// a key that was retired before it.
	for _, k := range []string{"k3", "a"} {
		if err := l.Accept(k, payload{}); err != nil {
			t.Fatal(err)
		}
	}
	_, pending = reopen(t, l)
	if got, want := keys(pending), "k4,k2,k0,k3,a"; got != want {
		t.Fatalf("pending after a second reopen = %s, want %s", got, want)
	}
}

// TestReacceptKeepsPosition: accepting a key that is still pending
// leaves its record alone — first payload, first place in admission
// order — so an acknowledged record is never rewritten.
func TestReacceptKeepsPosition(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := l.Accept(k, payload{N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Accept("a", payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Pending != 3 {
		t.Fatalf("pending = %d after a re-accept, want 3", st.Pending)
	}
	_, pending := reopen(t, l)
	if got := keys(pending); got != "a,b,c" {
		t.Fatalf("pending = %s, want a,b,c", got)
	}
	if string(pending[0].Req) != `{"n":1}` {
		t.Fatalf("re-accepted payload = %s, want the first one", pending[0].Req)
	}
}

// TestOpenDropsLeftoversAndCorruptRecords: an interrupted write's temp
// file is removed silently; a record that does not decode (torn, empty,
// no payload) is counted and removed; the good records still replay.
func TestOpenDropsLeftoversAndCorruptRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"good1", "good2"} {
		if err := l.Accept(k, payload{N: 7}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	for name, body := range map[string]string{
		"good1.tmp-123": `{"seq":9,"req":{"n":1}}`,
		"torn":          `{"seq":3,"req":{"n"`,
		"empty":         ``,
		"noreq":         `{"seq":4}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, pending, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := keys(pending); got != "good1,good2" {
		t.Fatalf("pending = %s, want good1,good2", got)
	}
	if st := l2.Stats(); st.Corrupt != 3 || st.Pending != 2 {
		t.Fatalf("stats = %+v, want 3 corrupt and 2 pending", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("journal directory holds %d entries after open, want the 2 records", len(ents))
	}
}

// TestClosedJournalRefusesWrites: after Close (a drain, or Kill's kill -9
// emulation) Accept and Done fail and are counted, and the record of
// the unfinished job stays for the next start.
func TestClosedJournalRefusesWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Accept("owed", payload{}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Done("owed"); err == nil {
		t.Fatal("Done after Close succeeded")
	}
	if err := l.Accept("late", payload{}); err == nil {
		t.Fatal("Accept after Close succeeded")
	}
	if st := l.Stats(); st.Errors != 2 {
		t.Fatalf("errors = %d, want 2", st.Errors)
	}
	if _, err := os.Stat(filepath.Join(dir, "owed")); err != nil {
		t.Fatalf("record of the unfinished job is gone: %v", err)
	}
}

// TestKeyIsOnePathElement: a key that is not a single file name of the
// journal directory, or that could pass for a temp file, is refused.
func TestKeyIsOnePathElement(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, key := range []string{"", ".", "..", ".hidden", "a/b", "../escape", `a\b`, "k.tmp-1"} {
		if err := l.Accept(key, payload{}); err == nil {
			t.Errorf("Accept(%q) succeeded", key)
		}
		if err := l.Done(key); err == nil {
			t.Errorf("Done(%q) succeeded", key)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("refused keys left %d entries in the journal", len(ents))
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); !os.IsNotExist(err) {
		t.Fatalf("a key escaped the journal directory: %v", err)
	}
}

// TestOpenRefusesRegularFile: a journal path that names a regular file
// (a journal file some other tool, or an old version, left there) is
// refused with an error that names the path, and the file is left as it
// was.
func TestOpenRefusesRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	body := []byte(`{"op":"accept","key":"a1","req":{"n":1}}` + "\n")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(path)
	if err == nil {
		l.Close()
		t.Fatal("Open of a regular file succeeded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("Open error %q does not name %s", err, path)
	}
	got, rerr := os.ReadFile(path)
	if fi, serr := os.Stat(path); rerr != nil || serr != nil || !fi.Mode().IsRegular() || string(got) != string(body) {
		t.Fatalf("the file at the journal path changed: %q, %v, %v", got, rerr, serr)
	}
}

// TestConcurrentAcceptDone hammers one journal from many goroutines,
// each accepting and retiring its own key stream while a subset of keys
// is left owed: a reopen must owe exactly the keys that were accepted
// and never retired, and the directory holds nothing else.
func TestConcurrentAcceptDone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		perG       = 30
		keepEvery  = 10 // every 10th key stays pending
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := l.Accept(key, payload{N: i}); err != nil {
					t.Errorf("accept %s: %v", key, err)
					return
				}
				if i%keepEvery != 0 {
					if err := l.Done(key); err != nil {
						t.Errorf("done %s: %v", key, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	wantPending := goroutines * (perG / keepEvery)
	if st := l.Stats(); st.Pending != wantPending || st.Errors != 0 {
		t.Fatalf("stats = %+v, want %d pending and no errors", st, wantPending)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != wantPending {
		t.Fatalf("journal directory holds %d entries (%v), want %d", len(ents), err, wantPending)
	}
	_, pending := reopen(t, l)
	got := make(map[string]bool, len(pending))
	for _, rec := range pending {
		got[rec.Key] = true
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i += keepEvery {
			if key := fmt.Sprintf("g%d-k%d", g, i); !got[key] {
				t.Fatalf("reopen lost owed key %s", key)
			}
		}
	}
	if len(got) != wantPending {
		t.Fatalf("reopen owes %d keys, want %d", len(got), wantPending)
	}
}
