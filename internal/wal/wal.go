// Package wal is the write-ahead log shared by gserved (per-worker job
// journal) and gsched (fleet coordinator queue journal). It generalizes
// the journal machinery introduced with gserved's crash tolerance: an
// append-only JSON-lines file where every record is fsync'd before the
// caller proceeds, so a process killed outright (kill -9, OOM, power
// loss) restarts with an exact record of the work it had accepted but
// not delivered.
//
// The log models work as accept/done pairs keyed by an opaque string
// (in this repo: the content-addressed job key). An "accept" record —
// carrying the caller's payload verbatim — means the work is owed; a
// "done" record retires it. Replay returns the still-owed accepts in
// admission order. Torn lines (a crash mid-append, bit rot) are counted
// and skipped: the record never took effect, so nothing is lost but the
// unfinished byte tail.
//
// Two compaction paths keep the file bounded by outstanding work rather
// than by history:
//
//   - on Open, the file is rewritten down to its pending accepts
//     (atomic temp + fsync + rename; a crash mid-compaction leaves the
//     old file, which replays to the same pending set);
//   - live, after CompactEvery records have been retired since the last
//     rewrite, Done triggers the same rewrite in place — a long-lived
//     coordinator churning through millions of jobs never grows its
//     journal past its backlog.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpushare/internal/checkpoint"
	"gpushare/internal/fault"
)

// Record operations.
const (
	OpAccept = "accept" // durably admitted, work owed
	OpDone   = "done"   // reached a terminal, non-resumable state
)

// Record is one JSON line of the log. Req carries the accept payload
// verbatim (the field keeps its historical name so logs written by
// earlier gserved versions replay unchanged).
type Record struct {
	Op  string          `json:"op"`
	Key string          `json:"key"`
	Req json.RawMessage `json:"req,omitempty"`
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appended    int64 // records fsync'd by this process
	Pending     int   // accepts without a done record (the replay set)
	TornLines   int64 // truncated/unparseable lines skipped during replay
	Errors      int64 // append failures (logging degrades, never blocks work)
	Compactions int64 // live rewrites performed by this process
}

// Log is the append-only JSON-lines WAL. All methods are safe for
// concurrent use; appends are fsync'd before they return.
type Log struct {
	// CompactEvery is the live-compaction threshold: after this many
	// retired records since the last rewrite, the next Done compacts the
	// file down to its pending accepts. 0 uses the default (256);
	// negative disables live compaction (Open still compacts).
	CompactEvery int

	// Faults, when non-nil, arms TornJournal crash-point injection on
	// the append path (durability tests only): half a record is written,
	// then the process "crashes" (panics with a checkpoint.CrashPoint).
	Faults *fault.Plan

	mu   sync.Mutex
	path string
	f    *os.File

	// pending maps owed keys to their accept payloads; order preserves
	// admission order (it may contain retired keys, pruned on rewrite).
	pending map[string]json.RawMessage
	order   []string

	appended     int64
	torn         int64
	errors       int64
	compactions  int64
	sinceCompact int
}

// Open opens (creating if needed) the log at path, replays it, compacts
// it down to just the still-pending accepts, and returns those records
// in admission order so the caller can re-admit them.
func Open(path string) (*Log, []Record, error) {
	l := &Log{path: path, pending: make(map[string]json.RawMessage)}

	if raw, err := os.ReadFile(path); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(raw))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				// A torn append (crash mid-write) or bit rot: the record
				// never took effect, skip it.
				l.torn++
				continue
			}
			switch rec.Op {
			case OpAccept:
				if len(rec.Req) == 0 {
					l.torn++
					continue
				}
				if _, ok := l.pending[rec.Key]; !ok {
					l.order = append(l.order, rec.Key)
				}
				l.pending[rec.Key] = rec.Req
			case OpDone:
				delete(l.pending, rec.Key)
			default:
				l.torn++
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if err := l.rewriteLocked(); err != nil {
		return nil, nil, err
	}

	pending := make([]Record, 0, len(l.pending))
	for _, key := range l.order {
		if req, ok := l.pending[key]; ok {
			pending = append(pending, Record{Op: OpAccept, Key: key, Req: req})
		}
	}
	return l, pending, nil
}

// Accept durably records admitted work under key, with payload (any
// JSON-marshalable value) stored verbatim for replay. It must be called
// before the work becomes visible to any executor: once Accept returns,
// a restart owes the caller this work.
func (l *Log) Accept(key string, payload any) error {
	req, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("wal: encode accept payload: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(Record{Op: OpAccept, Key: key, Req: req}); err != nil {
		return err
	}
	if _, ok := l.pending[key]; !ok {
		l.order = append(l.order, key)
	}
	l.pending[key] = req
	return nil
}

// Done records that the work under key reached a terminal,
// non-resumable state. Callers deliberately skip Done for preempted or
// canceled work: it is still owed and replays on the next start. When
// enough records have been retired since the last rewrite, Done
// compacts the log in place.
func (l *Log) Done(key string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(Record{Op: OpDone, Key: key}); err != nil {
		return err
	}
	delete(l.pending, key)
	l.sinceCompact++
	every := l.CompactEvery
	if every == 0 {
		every = 256
	}
	if every > 0 && l.sinceCompact >= every {
		if err := l.rewriteLocked(); err != nil {
			// A failed rewrite only costs file size; the append above is
			// already durable and the old file still replays correctly.
			l.errors++
			return nil
		}
		l.compactions++
	}
	return nil
}

// appendLocked writes one record as a JSON line and fsyncs it. Called
// with mu held.
func (l *Log) appendLocked(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	line = append(line, '\n')
	if l.f == nil {
		l.errors++
		return fmt.Errorf("wal: %s is closed", l.path)
	}
	if l.Faults.Trip(fault.TornJournal, -1, -1, -1,
		fmt.Sprintf("journal record %s/%s torn mid-append, then crash", rec.Op, rec.Key)) {
		l.f.Write(line[:len(line)/2])
		l.f.Sync()
		panic(&checkpoint.CrashPoint{Cycle: -1, Detail: "injected crash mid journal append"})
	}
	if _, err := l.f.Write(line); err != nil {
		l.errors++
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.errors++
		return fmt.Errorf("wal: %w", err)
	}
	l.appended++
	return nil
}

// rewriteLocked atomically replaces the file with just the pending
// accepts in admission order (checkpoint.WriteFileAtomic), then reopens
// the append handle. A crash at any point leaves either the old or the
// new file, both of which replay to the same pending set. Called with mu
// held.
func (l *Log) rewriteLocked() error {
	var buf []byte
	keep := l.order[:0]
	for _, key := range l.order {
		req, ok := l.pending[key]
		if !ok {
			continue
		}
		keep = append(keep, key)
		line, err := json.Marshal(Record{Op: OpAccept, Key: key, Req: req})
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		buf = append(append(buf, line...), '\n')
	}
	l.order = keep
	if err := checkpoint.WriteFileAtomic(l.path, buf); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// The old handle points at the unlinked inode; reopen for append.
	if l.f != nil {
		l.f.Close()
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.sinceCompact = 0
	return nil
}

// Lag is the number of accepted-but-unfinished keys the log owes — the
// work a crash right now would replay.
func (l *Log) Lag() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appended:    l.appended,
		Pending:     len(l.pending),
		TornLines:   l.torn,
		Errors:      l.errors,
		Compactions: l.compactions,
	}
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the log file (drain path; appends after Close fail and
// are counted, not fatal).
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}
