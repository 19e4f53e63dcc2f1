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
)

// runnerOptsWithCache shares one disk cache between daemon generations,
// as a production restart would.
func runnerOptsWithCache(dir string) runner.Options {
	return runner.Options{CacheDir: filepath.Join(dir, "cache")}
}

// journalLine renders one WAL record the way the daemon writes it.
func journalLine(t *testing.T, op, key string, req *server.SubmitRequest) string {
	t.Helper()
	rec := struct {
		Op  string                `json:"op"`
		Key string                `json:"key"`
		Req *server.SubmitRequest `json:"req,omitempty"`
	}{op, key, req}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestJournalReplayAfterKill models a daemon killed outright (kill -9)
// mid-job: its journal holds an accept with no done record, plus a torn
// trailing line from a crash mid-append. A fresh daemon pointed at that
// journal must re-admit and finish the job without any client action,
// count the torn line, and leave the journal with no pending work.
func TestJournalReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")

	req := seededReq(41)
	key, err := reqJob(req).Key()
	if err != nil {
		t.Fatal(err)
	}
	wal := journalLine(t, "accept", key, &req)
	wal += `{"op":"accept","key":"torn-` // crash mid-append: no newline, no close
	if err := os.WriteFile(jpath, []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}

	s, _, c := startDaemon(t, server.Options{
		Workers: 2, QueueDepth: 8, JournalPath: jpath,
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
	if sz.Journal.TornLines != 1 {
		t.Fatalf("torn lines = %d, want 1", sz.Journal.TornLines)
	}
	if sz.Journal.Pending != 0 {
		t.Fatalf("journal lag = %d after completion, want 0", sz.Journal.Pending)
	}

	// A third daemon over the same (now compacted) journal owes nothing.
	if err := s.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, c2 := startDaemon(t, server.Options{
		Workers: 1, QueueDepth: 8, JournalPath: jpath,
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

// TestJournalAcceptPrecedesWork: the WAL property itself. A journal
// armed with a TornJournal crash-point tears the very first accept
// record mid-append and "crashes" (the panic middleware answers 500).
// The job was never enqueued — and a restarted daemon over the torn
// journal must skip the torn line and owe nothing, then serve normally.
func TestJournalAcceptPrecedesWork(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")

	_, ts, _ := startDaemon(t, server.Options{
		Workers: 1, QueueDepth: 8, JournalPath: jpath,
		JournalFaults: &fault.Plan{Kind: fault.TornJournal, Nth: 1},
		Runner:        runnerOptsWithCache(dir),
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
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] == '\n' {
		t.Fatalf("journal does not end in a torn record: %q", raw)
	}

	_, _, c2 := startDaemon(t, server.Options{
		Workers: 1, QueueDepth: 8, JournalPath: jpath,
		Runner: runnerOptsWithCache(dir),
	})
	ctx := context.Background()
	sz, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Journal.TornLines != 1 || sz.Journal.Pending != 0 {
		t.Fatalf("journal = %+v, want 1 torn line and nothing pending", sz.Journal)
	}
	st, err := c2.SubmitWait(ctx, seededReq(42))
	if err != nil || st.State != server.StateDone {
		t.Fatalf("post-recovery submit = %+v, %v; want done", st, err)
	}
	if sz, err := c2.Status(ctx); err != nil || sz.Journal.Pending != 0 || sz.Journal.Appended < 2 {
		t.Fatalf("journal after submit = %+v, %v; want accept+done appended, no lag", sz.Journal, err)
	}
}

// TestJournalReplayLargerThanQueue: a replay of more jobs than the
// admission queue holds feeds in as the worker makes room — every job
// is re-admitted and finishes with no client involved — and a drain
// that starts while the replay is blocked on a full queue ends it,
// leaving the jobs it never re-admitted pending for the next start.
func TestJournalReplayLargerThanQueue(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	const n = 5
	var wal string
	keys := make([]string, n)
	for i := range keys {
		req := seededReq(uint64(60 + i))
		req.Scale = 2 // ~100ms each: the drain below lands mid-replay
		job := reqJob(req)
		job.Scale = req.Scale
		key, err := job.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		wal += journalLine(t, "accept", key, &req)
	}
	if err := os.WriteFile(jpath, []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := server.Options{Workers: 1, QueueDepth: 1, JournalPath: jpath,
		Runner: runnerOptsWithCache(dir)}

	// One worker, a one-deep queue: once two jobs are in (one running,
	// one queued) the replay has to wait for room, and the drain arrives
	// long before the worker makes any.
	s1 := server.New(opts)
	c1 := client.New(newTestServer(t, s1).URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for {
		sz, err := c1.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sz.Journal.Replayed >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Drain(60 * time.Second); err != nil {
		t.Fatalf("drain during a blocked replay: %v", err)
	}

	_, _, c := startDaemon(t, opts)
	sz, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Journal.Replayed == 0 || sz.Journal.Replayed > n-2 {
		t.Fatalf("second start replayed %d of %d: the drain should have finished what the first replay got in and left the rest",
			sz.Journal.Replayed, n)
	}
	for i, key := range keys {
		st, err := c.Wait(ctx, key, 0)
		for isNotFound(err) { // still behind the full queue, not in the registry yet
			time.Sleep(5 * time.Millisecond)
			st, err = c.Wait(ctx, key, 0)
		}
		if err != nil || st.State != server.StateDone || st.Stats == nil {
			t.Fatalf("replayed job %d = %+v, %v; want done", i, st, err)
		}
	}
	if sz, err := c.Status(ctx); err != nil || sz.Journal.Pending != 0 {
		t.Fatalf("journal after the replay = %+v, %v; want nothing pending", sz.Journal, err)
	}
}

func isNotFound(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound
}
