// Package cache implements a set-associative, LRU-replacement cache tag
// array used for both the per-SM L1 data caches and the L2 partitions.
// It tracks tags only — data always lives in the functional backing store
// (timing and function are decoupled, as in GPGPU-Sim's PTX mode).
package cache

import (
	"fmt"

	"gpushare/internal/config"
	"gpushare/internal/stats"
)

// Line is one tag-array line. A checkpoint serializes the live array
// as it is, so the fields carry their JSON names.
type Line struct {
	Tag      uint32 `json:"tag"`
	Valid    bool   `json:"valid"`
	LastUse  int64  `json:"last_use"`
	FilledAt int64  `json:"filled_at"`
}

// Cache is a set-associative tag array.
type Cache struct {
	sets   int
	ways   int
	lineSz uint32
	shift  uint
	policy config.CachePolicy
	lines  []Line // sets x ways, row-major
	clock  int64
	rng    uint64
	Stats  stats.Cache
}

// New returns an LRU cache with the given geometry. lineSz must be a
// power of two.
func New(sets, ways, lineSz int) *Cache {
	return NewWithPolicy(sets, ways, lineSz, config.PolicyLRU)
}

// NewWithPolicy returns a cache using the given replacement policy.
func NewWithPolicy(sets, ways, lineSz int, policy config.CachePolicy) *Cache {
	c := &Cache{}
	c.Reshape(sets, ways, lineSz, policy)
	return c
}

// Reshape gives the cache a new geometry and policy and resets it: it is
// then the cache NewWithPolicy builds, in its own tag array when that
// holds sets x ways lines. An SM rebuilt from a spare reshapes its L1.
func (c *Cache) Reshape(sets, ways, lineSz int, policy config.CachePolicy) {
	if sets <= 0 || ways <= 0 || lineSz <= 0 || lineSz&(lineSz-1) != 0 {
		panic(fmt.Sprintf("cache: bad geometry sets=%d ways=%d lineSz=%d", sets, ways, lineSz))
	}
	shift := uint(0)
	for 1<<shift != lineSz {
		shift++
	}
	c.sets, c.ways, c.lineSz, c.shift, c.policy = sets, ways, uint32(lineSz), shift, policy
	if n := sets * ways; cap(c.lines) < n {
		c.lines = make([]Line, n)
	} else {
		c.lines = c.lines[:n]
	}
	c.Reset()
}

// rngSeed is the random-replacement cursor of a new cache.
const rngSeed = 0x853c49e6748fea9b

// Reset returns the cache to the state NewWithPolicy built it in, its
// tag array kept: every line invalid, the clock, the random-replacement
// cursor and the statistics at their start values.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock, c.rng, c.Stats = 0, rngSeed, stats.Cache{}
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * int(c.lineSz) }

func (c *Cache) set(lineAddr uint32) int {
	return int((lineAddr >> c.shift) % uint32(c.sets))
}

// Probe performs a lookup for the line containing addr, updating LRU
// state and hit/miss statistics. It does not allocate on miss; call Fill
// when the line arrives from the next level.
func (c *Cache) Probe(addr uint32) bool {
	c.clock++
	c.Stats.Accesses++
	lineAddr := addr &^ (c.lineSz - 1)
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.Valid && l.Tag == lineAddr {
			l.LastUse = c.clock
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Contains reports whether the line holding addr is resident, without
// touching LRU state or statistics.
func (c *Cache) Contains(addr uint32) bool {
	lineAddr := addr &^ (c.lineSz - 1)
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.Valid && l.Tag == lineAddr {
			return true
		}
	}
	return false
}

// Fill installs the line containing addr, evicting a victim chosen by
// the replacement policy if the set is full. Filling an already-resident
// line only refreshes recency state.
func (c *Cache) Fill(addr uint32) {
	c.clock++
	lineAddr := addr &^ (c.lineSz - 1)
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.Valid && l.Tag == lineAddr {
			l.LastUse = c.clock
			return
		}
		if !l.Valid {
			*l = Line{Tag: lineAddr, Valid: true, LastUse: c.clock, FilledAt: c.clock}
			return
		}
	}
	victim := c.victim(s)
	l := &c.lines[s*c.ways+victim]
	c.Stats.Evicts++
	*l = Line{Tag: lineAddr, Valid: true, LastUse: c.clock, FilledAt: c.clock}
}

// victim picks the way to evict from a full set per the policy.
func (c *Cache) victim(s int) int {
	switch c.policy {
	case config.PolicyFIFO:
		v := 0
		for w := 1; w < c.ways; w++ {
			if c.lines[s*c.ways+w].FilledAt < c.lines[s*c.ways+v].FilledAt {
				v = w
			}
		}
		return v
	case config.PolicyRand:
		// splitmix64 step keyed only by internal state: deterministic
		// across runs with identical traffic.
		c.rng += 0x9e3779b97f4a7c15
		z := c.rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(c.ways))
	default: // LRU
		v := 0
		for w := 1; w < c.ways; w++ {
			if c.lines[s*c.ways+w].LastUse < c.lines[s*c.ways+v].LastUse {
				v = w
			}
		}
		return v
	}
}

// Invalidate drops the line containing addr if resident (used for the
// write-evict policy on global stores).
func (c *Cache) Invalidate(addr uint32) {
	lineAddr := addr &^ (c.lineSz - 1)
	s := c.set(lineAddr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.Valid && l.Tag == lineAddr {
			l.Valid = false
			return
		}
	}
}

// Flush invalidates every line (between-kernel cache flush).
func (c *Cache) Flush() { clear(c.lines) }
