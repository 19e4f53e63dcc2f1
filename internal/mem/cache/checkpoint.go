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

// CheckState reports whether a snapshot fits this cache's geometry,
// without touching the cache.
func (c *Cache) CheckState(s Checkpoint) error {
	if len(s.Lines) != len(c.lines) {
		return fmt.Errorf("cache snapshot has %d lines, cache has %d (geometry mismatch)", len(s.Lines), len(c.lines))
	}
	return nil
}

// RestoreView returns a snapshot whose tag array is the cache's own,
// for a decoder to fill in place. Every field of a Line is always
// serialized, so a decode into it leaves nothing of the old line.
func (c *Cache) RestoreView() Checkpoint { return Checkpoint{Lines: c.lines} }

// RestoreState applies a snapshot onto a freshly constructed cache of
// identical geometry, or leaves the cache untouched if it does not fit.
// A snapshot decoded into the cache's own tag array (see
// RestoreView) makes the copy a self-copy.
func (c *Cache) RestoreState(s Checkpoint) error {
	if err := c.CheckState(s); err != nil {
		return err
	}
	copy(c.lines, s.Lines)
	c.clock = s.Clock
	c.rng = s.RNG
	c.Stats = s.Stats
	return nil
}
