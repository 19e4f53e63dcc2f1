// Package wal is the write-ahead job journal of gserved and gsched: a
// directory of one record per owed key (the job's content key), so a
// process killed outright restarts owing exactly the work it accepted and
// did not deliver. Accept writes the record with
// checkpoint.WriteFileAtomic, Done removes it, Open replays the rest in
// admission order; the directory holds only outstanding work.
package wal

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"gpushare/internal/checkpoint"
	"gpushare/internal/fault"
)

// Record is one owed job: the file <journal>/<Key> holding {seq, req}.
// Seq is its admission number; Req carries the accept payload verbatim.
type Record struct {
	Seq int64           `json:"seq"`
	Key string          `json:"-"`
	Req json.RawMessage `json:"req"`
}

// Stats is a point-in-time snapshot of the journal's counters.
type Stats struct {
	Appended int64 // records written (Accept) or removed (Done) by this process
	Pending  int   // records on disk: accepts without a done
	Corrupt  int64 // undecodable records dropped at open
	Errors   int64 // failed writes (journaling degrades, never blocks work)
}

// Log is one journal directory, safe for concurrent use; Accept and Done
// are durable when they return.
type Log struct {
	// Faults, when non-nil, arms TornJournal (durability tests only):
	// Accept writes the record, truncates it to half and panics with a
	// checkpoint.CrashPoint before returning.
	Faults *fault.Plan

	mu      sync.Mutex
	dir     string
	seq     int64            // highest admission number handed out
	pending map[string]int64 // owed keys and their admission numbers
	closed  bool

	appended, corrupt, errors int64
}

// Open opens (creating if needed) the journal directory dir; a path
// that names anything but a directory is an error, and is left as it
// is. Open removes interrupted writes' temp files and, counted, records
// that do not decode (they never took effect), and returns the rest in
// admission order for the caller to re-admit.
func Open(dir string) (*Log, []Record, error) {
	l := &Log{dir: dir, pending: make(map[string]int64)}
	err := os.MkdirAll(dir, 0o755)
	var ents []os.DirEntry
	if err == nil {
		ents, err = os.ReadDir(dir)
	}
	var recs []Record
	for _, e := range ents {
		path, rec := filepath.Join(dir, e.Name()), Record{Key: e.Name()}
		if !strings.Contains(rec.Key, ".tmp-") {
			raw, rerr := os.ReadFile(path)
			if rerr == nil && json.Unmarshal(raw, &rec) == nil && len(rec.Req) > 0 && validKey(rec.Key) {
				recs = append(recs, rec)
				l.pending[rec.Key], l.seq = rec.Seq, max(l.seq, rec.Seq)
				continue
			}
			l.corrupt++
		}
		err = errors.Join(err, os.Remove(path))
	}
	if err = errors.Join(err, checkpoint.SyncDir(dir)); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	return l, recs, nil
}

// validKey admits keys that name one file of the journal directory and
// no interrupted write's temp file.
func validKey(key string) bool {
	return key != "" && key[0] != '.' && !strings.ContainsAny(key, `/\`) && !strings.Contains(key, ".tmp-")
}

// usable fails, counted, when the journal is closed or key is not valid.
// Called with mu held.
func (l *Log) usable(key string) error {
	var err error
	if !validKey(key) {
		err = fmt.Errorf("wal: key %q is not a single path element", key)
	} else if l.closed {
		err = fmt.Errorf("wal: %s is closed", l.dir)
	}
	if err != nil {
		l.errors++
	}
	return err
}

// Accept durably records admitted work under key, with payload (any
// JSON-marshalable value) stored verbatim for replay. It must be called
// before the work becomes visible to any executor: once Accept returns, a
// restart owes the caller this work. Accepting a still-pending key
// writes nothing: its record already owes the same job, and rewriting it
// would put an acknowledged record at risk for a new envelope.
func (l *Log) Accept(key string, payload any) error {
	req, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("wal: encode accept payload: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(key); err != nil {
		return err
	}
	if _, ok := l.pending[key]; ok {
		return nil
	}
	seq := l.seq + 1
	path, rec := filepath.Join(l.dir, key), fmt.Appendf(nil, `{"seq":%d,"req":%s}`, seq, req)
	if err := checkpoint.WriteFileAtomic(path, rec); err != nil {
		l.errors++
		return fmt.Errorf("wal: %w", err)
	}
	if l.Faults.Trip(fault.TornJournal, -1, -1, -1, "journal record "+key+" truncated to half, then crash") {
		os.Truncate(path, int64(len(rec)/2))
		panic(&checkpoint.CrashPoint{Cycle: -1, Detail: "injected crash leaving a torn journal record"})
	}
	l.pending[key], l.seq = seq, seq
	l.appended++
	return nil
}

// Done retires the work under key: it reached a terminal, non-resumable
// state. Callers deliberately skip Done for preempted or canceled work:
// it is still owed and replays on the next start.
func (l *Log) Done(key string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(key); err != nil {
		return err
	}
	if _, ok := l.pending[key]; !ok {
		return nil // never accepted, or already retired
	}
	err := os.Remove(filepath.Join(l.dir, key))
	if err == nil || os.IsNotExist(err) { // gone already if a removal's fsync failed
		err = checkpoint.SyncDir(l.dir)
	}
	if err != nil {
		l.errors++
		return fmt.Errorf("wal: %w", err)
	}
	delete(l.pending, key)
	l.appended++
	return nil
}

// Stats snapshots the journal's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appended: l.appended, Pending: len(l.pending), Corrupt: l.corrupt, Errors: l.errors}
}

// Path returns the journal directory.
func (l *Log) Path() string { return l.dir }

// Close ends this process's use of the journal (drain, and Core.Kill's
// kill -9 emulation): every later Accept or Done fails, counted, and
// leaves the directory as it is.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
}
