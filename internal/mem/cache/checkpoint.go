package cache

import (
	"fmt"

	"gpushare/internal/stats"
)

// Checkpoint is a cache's complete mutable state: every tag line (the
// recency/fill clocks included, so LRU and FIFO victims replay
// identically), the internal clock, the random-replacement RNG cursor,
// and the hit/miss statistics. Geometry and policy are rebuilt from the
// config on restore.
type Checkpoint struct {
	Lines []Line      `json:"lines"`
	Clock int64       `json:"clock"`
	RNG   uint64      `json:"rng"`
	Stats stats.Cache `json:"stats"`
}

// Checkpoint returns a view of the cache's mutable state. Lines aliases
// the live tag array, so the view is valid until the cache is next
// touched: serialize it before the machine moves on.
func (c *Cache) Checkpoint() Checkpoint {
	return Checkpoint{Lines: c.lines, Clock: c.clock, RNG: c.rng, Stats: c.Stats}
}

// RestoreState applies a snapshot onto a freshly constructed cache of
// identical geometry.
func (c *Cache) RestoreState(s Checkpoint) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache snapshot has %d lines, cache has %d (geometry mismatch)", len(s.Lines), len(c.lines))
	}
	copy(c.lines, s.Lines)
	c.clock = s.Clock
	c.rng = s.RNG
	c.Stats = s.Stats
	return nil
}
