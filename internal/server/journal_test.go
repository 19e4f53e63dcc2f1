package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpushare/internal/client"
	"gpushare/internal/fault"
	"gpushare/internal/runner"
	"gpushare/internal/server"
	"gpushare/internal/wal"
)

// runnerOptsWithCache shares one disk cache between daemon generations,
// as a production restart would.
func runnerOptsWithCache(dir string) runner.Options {
	return runner.Options{CacheDir: filepath.Join(dir, "cache")}
}

// journalAccepts writes a journal at dir owing req under each key, in
// order, as a daemon killed before finishing any of them leaves it.
func journalAccepts(t *testing.T, dir string, keys []string, reqs []server.SubmitRequest) {
	t.Helper()
	jl, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	for i, key := range keys {
		if err := jl.Accept(key, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalReplayAfterKill models a daemon killed outright (kill -9)
// mid-job: its record directory holds the record of an accepted job
// with no completion, a torn record (a crash that cut a record short)
// and the temp file of an interrupted atomic write. A fresh daemon
// pointed at that journal must re-admit and finish the job without any
// client action, count the torn record, drop the temp file, and leave
// the journal with no pending work.
func TestJournalReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")

	req := seededReq(41)
	key, err := reqJob(req).Key()
	if err != nil {
		t.Fatal(err)
	}
	journalAccepts(t, jpath, []string{key}, []server.SubmitRequest{req})
	for name, body := range map[string]string{
		"torn-" + key[:8]:  `{"seq":2,"req":{"workl`,
		key + ".tmp-12345": `{"seq":3,"req":{}}`,
	} {
		if err := os.WriteFile(filepath.Join(jpath, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, _, c := startDaemon(t, server.Options{
		Workers: 2, CoreOptions: server.CoreOptions{QueueDepth: 8, JournalPath: jpath},
		Runner: runnerOptsWithCache(dir),
	})
	ctx := context.Background()

	// The replayed job finishes with no resubmission from any client.
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := c.Get(ctx, key)
		if err == nil && st.State == server.StateDone {
			if st.Stats == nil {
				t.Fatal("replayed job finished without stats")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished (last: %+v, err %v)", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sz, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Journal == nil {
		t.Fatal("statusz missing journal section")
	}
	if sz.Journal.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", sz.Journal.Replayed)
	}
	if sz.Journal.Corrupt != 1 {
		t.Fatalf("corrupt records = %d, want the 1 torn record", sz.Journal.Corrupt)
	}
	if sz.Journal.Pending != 0 {
		t.Fatalf("journal lag = %d after completion, want 0", sz.Journal.Pending)
	}
	if ents, err := os.ReadDir(jpath); err != nil || len(ents) != 0 {
		t.Fatalf("journal directory after completion: %d entries, %v; want empty", len(ents), err)
	}

	// A second daemon over the same journal owes nothing.
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, c2 := startDaemon(t, server.Options{
		Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8, JournalPath: jpath},
		Runner: runnerOptsWithCache(dir),
	})
	sz2, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz2.Journal.Pending != 0 || sz2.Journal.Replayed != 0 {
		t.Fatalf("restarted journal = %+v, want nothing pending or replayed", sz2.Journal)
	}
}

// TestJournalReplayUnderChangedKeyRetiresOldRecord: a record journaled
// under a key this build no longer computes for its request (a
// fingerprint change across an upgrade) replays under the new key, and
// once it finishes the journal owes nothing — the old accept is retired,
// not left pending forever — so a second start replays nothing.
func TestJournalReplayUnderChangedKeyRetiresOldRecord(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")

	req := seededReq(43)
	key, err := reqJob(req).Key()
	if err != nil {
		t.Fatal(err)
	}
	const oldKey = "0000000000000000000000000000000000000000000000000000000000000000"
	journalAccepts(t, jpath, []string{oldKey}, []server.SubmitRequest{req})
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8, JournalPath: jpath},
		Runner: runnerOptsWithCache(dir)}

	s, _, c := startDaemon(t, opts)
	ctx := context.Background()
	if st := waitForState(t, c, key, server.StateDone); st.Stats == nil {
		t.Fatal("replayed job finished without stats")
	}
	var sz *server.Statusz
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if sz, err = c.Status(ctx); err != nil {
			t.Fatal(err)
		}
		if sz.Journal.Pending == 0 || time.Now().After(deadline) {
			break
		}
	}
	if sz.Journal.Replayed != 1 || sz.Journal.Pending != 0 {
		t.Fatalf("journal = %+v after the replayed job finished, want 1 replayed and nothing pending", sz.Journal)
	}
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	_, _, c2 := startDaemon(t, opts)
	sz2, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz2.Journal.Replayed != 0 || sz2.Journal.Pending != 0 {
		t.Fatalf("second start over the journal = %+v, want nothing replayed or pending", sz2.Journal)
	}
}

// TestJournalAcceptPrecedesWork: the WAL property itself. A journal
// armed with a TornJournal crash-point tears the very first accept
// record and "crashes" (the panic middleware answers 500) before Accept
// returns. The job was never enqueued — and a restarted daemon over the
// torn journal must drop the torn record and owe nothing, then serve
// normally.
func TestJournalAcceptPrecedesWork(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")

	_, ts, _ := startDaemon(t, server.Options{
		Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8, JournalPath: jpath,
			Faults: &fault.Plan{Kind: fault.TornJournal, Nth: 1}},
		Runner: runnerOptsWithCache(dir),
	})
	body := strings.NewReader(`{"workload":"gaussian"}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected crash answered %d, want 500", resp.StatusCode)
	}
	ents, err := os.ReadDir(jpath)
	if err != nil || len(ents) != 1 {
		t.Fatalf("journal after the crash: %d entries, %v; want the 1 torn record", len(ents), err)
	}
	raw, err := os.ReadFile(filepath.Join(jpath, ents[0].Name()))
	if err != nil || json.Valid(raw) {
		t.Fatalf("journal record %q (%v) is not torn", raw, err)
	}

	_, _, c2 := startDaemon(t, server.Options{
		Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 8, JournalPath: jpath},
		Runner: runnerOptsWithCache(dir),
	})
	ctx := context.Background()
	sz, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Journal.Corrupt != 1 || sz.Journal.Pending != 0 {
		t.Fatalf("journal = %+v, want 1 corrupt record and nothing pending", sz.Journal)
	}
	st, err := c2.SubmitWait(ctx, seededReq(42))
	if err != nil || st.State != server.StateDone {
		t.Fatalf("post-recovery submit = %+v, %v; want done", st, err)
	}
	if sz, err := c2.Status(ctx); err != nil || sz.Journal.Pending != 0 || sz.Journal.Appended < 2 {
		t.Fatalf("journal after submit = %+v, %v; want accept+done written, no lag", sz.Journal, err)
	}
}

// TestJournalReplayLargerThanQueue: replay is not admission. A journal
// of more jobs than the admission queue holds is re-admitted whole
// before the daemon serves — none is shed, none waits for room — while
// the bound goes on applying to new submissions: readyz says queue-full
// and a fresh job is shed until the backlog is back under it. A drain
// runs the replayed backlog dry like any other queued work, so the next
// start owes nothing.
func TestJournalReplayLargerThanQueue(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	const n = 5
	keys := make([]string, n)
	reqs := make([]server.SubmitRequest, n)
	for i := range keys {
		req := seededReq(uint64(60 + i))
		req.Scale = 2 // ~100ms each: the probes below land inside the backlog
		job := reqJob(req)
		job.Scale = req.Scale
		key, err := job.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i], reqs[i] = key, req
	}
	journalAccepts(t, jpath, keys, reqs)
	opts := server.Options{Workers: 1, CoreOptions: server.CoreOptions{QueueDepth: 1, JournalPath: jpath},
		Runner: runnerOptsWithCache(dir)}

	s1 := server.MustNew(opts)
	ts1 := newTestServer(t, s1)
	c1 := client.New(ts1.URL)
	c1.MaxRetries = -1
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sz, err := c1.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Journal.Replayed != n {
		t.Fatalf("replayed %d of %d journaled jobs past a queue of 1", sz.Journal.Replayed, n)
	}
	if resp, err := http.Get(ts1.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz over a replayed backlog = %v %v, want 503 queue-full", resp, err)
	}
	var apiErr *client.APIError
	if _, err := c1.Submit(ctx, seededReq(70)); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over a replayed backlog = %v, want 429", err)
	}
	if err := s1.Drain(60 * time.Second); err != nil {
		t.Fatalf("drain over a replayed backlog: %v", err)
	}

	_, _, c := startDaemon(t, opts)
	if sz, err := c.Status(ctx); err != nil || sz.Journal.Replayed != 0 || sz.Journal.Pending != 0 {
		t.Fatalf("journal after the drain = %+v, %v; want nothing replayed or pending", sz.Journal, err)
	}
	for i, key := range keys {
		if st, err := c.Get(ctx, key); err != nil || st.State != server.StateDone || st.Stats == nil {
			t.Fatalf("replayed job %d = %+v, %v; want done", i, st, err)
		}
	}
}
