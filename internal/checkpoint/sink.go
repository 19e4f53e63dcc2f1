package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gpushare/internal/fault"
)

// ckExt is the on-disk checkpoint file suffix; files are named by cycle
// (zero-padded so lexical order equals numeric order).
const ckExt = ".ckpt"

// DirSink stores checkpoints as one file per cycle in a directory, each
// written by WriteFileAtomic. A reader therefore only ever sees complete
// containers (a crash mid-write leaves a temp file that Latest ignores),
// and the container digest catches anything the filesystem does to a
// renamed file afterwards.
type DirSink struct {
	dir  string
	keep int // newest checkpoints retained; <= 0 keeps all

	// Faults, when non-nil, arms fault injection on the write path
	// (tests only): CrashAfterCheckpoint panics after a successful
	// atomic write, TornCheckpoint truncates the just-renamed file and
	// then panics — emulating a kill -9 at the worst moments — and
	// HoldAtCheckpoint blocks the run after a durable write until the
	// plan is released.
	Faults *fault.Plan

	mu sync.Mutex
}

// NewDirSink returns a sink writing into dir (created if missing),
// retaining the newest keep checkpoints (keep <= 0 retains all — the
// bisect workflow wants every stride).
func NewDirSink(dir string, keep int) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	return &DirSink{dir: dir, keep: keep}, nil
}

// Dir returns the sink's directory.
func (s *DirSink) Dir() string { return s.dir }

func ckName(cycle int64) string {
	return fmt.Sprintf("ck-%012d%s", cycle, ckExt)
}

// Put implements Sink: atomic write, then prune to the retention count.
func (s *DirSink) Put(cycle int64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, ckName(cycle))
	// Clear removes the directory itself; recreate it so a sink stays
	// usable across a clear-then-cold-restart recovery sequence.
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint dir: %w", err)
	}
	if err := WriteFileAtomic(path, blob); err != nil {
		return fmt.Errorf("checkpoint write: %w", err)
	}
	if s.Faults.Trip(fault.TornCheckpoint, cycle, -1, -1,
		fmt.Sprintf("checkpoint %s truncated to half its size, then crash", ckName(cycle))) {
		os.Truncate(path, int64(len(blob)/2))
		panic(&CrashPoint{Cycle: cycle, Detail: "injected crash leaving a torn checkpoint file"})
	}
	s.prune()
	if s.Faults.Trip(fault.CrashAfterCheckpoint, cycle, -1, -1,
		fmt.Sprintf("crash immediately after checkpoint %s was durably written", ckName(cycle))) {
		panic(&CrashPoint{Cycle: cycle, Detail: "injected crash after checkpoint write, before any journal commit"})
	}
	if s.Faults.Trip(fault.HoldAtCheckpoint, cycle, -1, -1, "run held after a durable checkpoint") {
		s.Faults.Hold()
	}
	return nil
}

// WriteFileAtomic replaces path with data so that a reader, or a restart
// after a crash at any point, sees either the old file or the complete
// new one: a temp file in the same directory is written, fsync'd, closed
// and renamed over path, and then the directory is fsync'd, because the
// rename lives in the directory entry and a power cut can otherwise drop
// it. The temp name is path's base plus ".tmp-*", which no checkpoint,
// cache entry or journal name matches. It is the one atomic write of
// checkpoints, the runner's result store and the journal's records.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making the renames, creations and
// removals in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CrashPoint is the panic value thrown by injected crash-point faults.
// The runner's panic isolation turns it into a retryable attempt
// failure, exactly like a real crash would; tests recover it directly.
type CrashPoint struct {
	Cycle  int64
	Detail string
}

func (c *CrashPoint) String() string {
	return fmt.Sprintf("injected crash point at cycle %d: %s", c.Cycle, c.Detail)
}

// prune removes the oldest checkpoints beyond the retention count.
// Caller holds mu.
func (s *DirSink) prune() {
	if s.keep <= 0 {
		return
	}
	cycles := s.cycles()
	for len(cycles) > s.keep {
		os.Remove(filepath.Join(s.dir, ckName(cycles[0])))
		cycles = cycles[1:]
	}
}

// cycles lists the stored checkpoint cycles in ascending order,
// ignoring temp files and anything not matching the naming scheme.
func (s *DirSink) cycles() []int64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ck-") || !strings.HasSuffix(name, ckExt) || strings.Contains(name, "tmp") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "ck-"), ckExt), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// List returns the stored checkpoint cycles in ascending order.
func (s *DirSink) List() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cycles()
}

// Get reads and container-validates the checkpoint for one cycle.
func (s *DirSink) Get(cycle int64) ([]byte, error) {
	blob, err := os.ReadFile(filepath.Join(s.dir, ckName(cycle)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint for cycle %d: %w", cycle, err)
	}
	if err := validateBlob(cycle, blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// Latest returns the newest checkpoint that decodes cleanly, deleting
// any newer ones that fail container validation (a torn file from a
// crash mid-retention, or bit rot). ok is false when no usable
// checkpoint exists — the caller restarts from cycle 0. Corruption is
// thus never loaded and never fatal: recovery degrades to an older
// checkpoint, then to a cold start.
func (s *DirSink) Latest() (cycle int64, blob []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cycles := s.cycles()
	for i := len(cycles) - 1; i >= 0; i-- {
		c := cycles[i]
		b, err := os.ReadFile(filepath.Join(s.dir, ckName(c)))
		if err == nil && validateBlob(c, b) == nil {
			return c, b, true
		}
		// Unreadable or corrupt: discard so the next recovery does not
		// retry it, and fall back to the previous checkpoint.
		os.Remove(filepath.Join(s.dir, ckName(c)))
	}
	return 0, nil, false
}

// Clear removes every stored checkpoint (called when the run they
// belong to completes).
func (s *DirSink) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.cycles() {
		os.Remove(filepath.Join(s.dir, ckName(c)))
	}
	os.Remove(s.dir) // best-effort; fails harmlessly if non-empty
}

// MemSink retains every checkpoint in memory, for tests and the
// bisect-hang workflow.
type MemSink struct {
	mu    sync.Mutex
	blobs map[int64][]byte
	order []int64
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink {
	return &MemSink{blobs: make(map[int64][]byte)}
}

// Put implements Sink.
func (s *MemSink) Put(cycle int64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.blobs[cycle]; !dup {
		s.order = append(s.order, cycle)
	}
	s.blobs[cycle] = append([]byte(nil), blob...)
	return nil
}

// List returns the checkpointed cycles in the order they were stored.
func (s *MemSink) List() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.order...)
}

// Get returns the checkpoint for one cycle, or nil.
func (s *MemSink) Get(cycle int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blobs[cycle]
}

// Latest returns the newest stored checkpoint; ok is false when empty.
func (s *MemSink) Latest() (cycle int64, blob []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return 0, nil, false
	}
	best := s.order[0]
	for _, c := range s.order[1:] {
		if c > best {
			best = c
		}
	}
	return best, s.blobs[best], true
}
