package runner

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpushare/internal/checkpoint"
	"gpushare/internal/stats"
)

// CacheTier reports where a job's result came from.
type CacheTier int

// Result provenance, cheapest first.
const (
	Simulated  CacheTier = iota // freshly simulated, no cache hit
	FromMemory                  // in-memory LRU hit
	FromDisk                    // on-disk store hit (promoted to memory)
)

func (t CacheTier) String() string {
	switch t {
	case Simulated:
		return "simulated"
	case FromMemory:
		return "memory-cache"
	case FromDisk:
		return "disk-cache"
	}
	return fmt.Sprintf("CacheTier(%d)", int(t))
}

// storeVersion names the on-disk layout; a layout change moves entries
// to a new subdirectory instead of misparsing old ones.
const storeVersion = "v1"

// memEntries bounds the in-memory tier. A full `gexp -exp all` sweep
// needs a few hundred distinct results, so this keeps every result of
// even a large matrix resident.
const memEntries = 4096

// store is the two-tier result cache: an in-memory LRU in front of an
// optional on-disk JSON store. Disk entries are validated on load — the
// simulator fingerprint must match the running binary and the payload
// checksum must match the stored sum — and invalid entries are deleted
// and treated as misses, so corrupt or stale results are re-simulated,
// never trusted. All methods are safe for concurrent use.
type store struct {
	fingerprint string
	dir         string // "" disables the disk tier
	cap         int

	mu  sync.Mutex
	mem map[string]*list.Element
	lru *list.List // front = most recently used; values are memEntry
}

type memEntry struct {
	key string
	g   *stats.GPU
}

func newStore(dir string, fingerprint string) *store {
	return &store{
		fingerprint: fingerprint,
		dir:         dir,
		cap:         memEntries,
		mem:         make(map[string]*list.Element),
		lru:         list.New(),
	}
}

// get returns the cached result for key and the tier that served it,
// or (nil, Simulated) on a miss.
func (s *store) get(key string) (*stats.GPU, CacheTier) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		g := el.Value.(memEntry).g
		s.mu.Unlock()
		return g, FromMemory
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, Simulated
	}
	g, ok := s.load(key)
	if !ok {
		return nil, Simulated
	}
	s.putMem(key, g)
	return g, FromDisk
}

// put records a fresh result in both tiers.
func (s *store) put(key string, g *stats.GPU) error {
	s.putMem(key, g)
	if s.dir == "" {
		return nil
	}
	return s.save(key, g)
}

func (s *store) putMem(key string, g *stats.GPU) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		el.Value = memEntry{key, g}
		return
	}
	s.mem[key] = s.lru.PushFront(memEntry{key, g})
	for s.lru.Len() > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.mem, oldest.Value.(memEntry).key)
	}
}

// entry is the on-disk record: the result JSON plus the metadata that
// guards it. Sum detects truncated or corrupted files; Fingerprint
// invalidates results produced by other simulator revisions.
type entry struct {
	Fingerprint string          `json:"fingerprint"`
	Key         string          `json:"key"`
	Sum         string          `json:"sum"`
	Stats       json.RawMessage `json:"stats"`
}

// path shards entries by key prefix so no directory grows unbounded.
func (s *store) path(key string) string {
	return filepath.Join(s.dir, storeVersion, key[:2], key+".json")
}

// load reads and validates one disk entry; every validation failure
// removes the file and reports a miss.
func (s *store) load(key string) (*stats.GPU, bool) {
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		s.discard(key)
		return nil, false
	}
	if e.Fingerprint != s.fingerprint || e.Key != key {
		s.discard(key)
		return nil, false
	}
	sum := sha256.Sum256(e.Stats)
	if hex.EncodeToString(sum[:]) != e.Sum {
		s.discard(key)
		return nil, false
	}
	g, err := stats.DecodeJSON(e.Stats)
	if err != nil {
		s.discard(key)
		return nil, false
	}
	return g, true
}

// save writes one disk entry atomically (checkpoint.WriteFileAtomic:
// temp file, fsync, rename, directory fsync), so concurrent writers,
// crash-interrupted writes and power loss can never leave a half-written,
// empty or missing entry visible to readers — or behind a journal that
// already says "done".
func (s *store) save(key string, g *stats.GPU) error {
	raw, err := g.EncodeJSON()
	if err != nil {
		return fmt.Errorf("runner: encode result: %w", err)
	}
	sum := sha256.Sum256(raw)
	b, err := json.Marshal(entry{
		Fingerprint: s.fingerprint,
		Key:         key,
		Sum:         hex.EncodeToString(sum[:]),
		Stats:       raw,
	})
	if err != nil {
		return fmt.Errorf("runner: encode cache entry: %w", err)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runner: cache dir: %w", err)
	}
	if err := checkpoint.WriteFileAtomic(path, b); err != nil {
		return fmt.Errorf("runner: cache write: %w", err)
	}
	return nil
}

func (s *store) discard(key string) {
	os.Remove(s.path(key))
}
