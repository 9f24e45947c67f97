// Package cache implements the processor-side cache hierarchy of the
// simulated system (Table 4): private L1 and L2 caches per core, a shared
// L3, and a linear next-line prefetcher. The hierarchy filters the workload
// generators' access streams into the memory traffic the controller sees.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   clock.Time // access latency contributed by this level
}

// Validate reports whether the geometry is usable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: size/line/ways must be positive: %+v", c)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line×ways %d", c.SizeBytes, c.LineBytes*c.Ways)
	case c.Latency < 0:
		return fmt.Errorf("cache: negative latency")
	}
	n := c.SizeBytes / (c.LineBytes * c.Ways)
	if n&(n-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", n)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	Writebacks int64
}

// HitRate returns hits / (hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   int64
}

// Cache is one set-associative write-back, write-allocate cache.
type Cache struct {
	cfg   Config //twicelint:keep geometry, fixed at construction
	sets  [][]line
	mask  uint64 //twicelint:keep derived set-index mask, fixed at construction
	shift uint   //twicelint:keep derived block shift, fixed at construction
	tick  int64
	stats Stats
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:   cfg,
		sets:  make([][]line, nsets),
		mask:  uint64(nsets - 1),
		shift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c, nil
}

// Reset invalidates every line and zeroes the LRU clock and counters,
// returning the cache to its just-constructed state without reallocating.
func (c *Cache) Reset() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
	}
	c.tick = 0
	c.stats = Stats{}
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the line containing addr, allocating it on miss. It
// returns whether the access hit and, when the allocation evicted a dirty
// line, that victim's base address.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, hasVictim bool) {
	c.tick++
	lineAddr := addr >> c.shift
	set := c.sets[lineAddr&c.mask]
	var lruIdx int
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return true, 0, false
		}
		if !set[i].valid {
			lruIdx = i
		} else if set[lruIdx].valid && set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	c.stats.Misses++
	v := &set[lruIdx]
	if v.valid && v.dirty {
		victim = v.tag << c.shift
		hasVictim = true
		c.stats.Writebacks++
	}
	v.valid = true
	v.dirty = write
	v.tag = lineAddr
	v.lru = c.tick
	return false, victim, hasVictim
}

// Contains reports whether the line holding addr is resident (no side
// effects; test and prefetch-filter hook).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.shift
	set := c.sets[lineAddr&c.mask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// Fill inserts the line containing addr without counting a demand access
// (prefetch fills and writeback allocations). It returns a dirty victim like
// Access. A resident line absorbs the fill (and the dirty bit, if set).
func (c *Cache) Fill(addr uint64, dirty bool) (victim uint64, hasVictim bool) {
	c.tick++
	lineAddr := addr >> c.shift
	set := c.sets[lineAddr&c.mask]
	lruIdx := 0
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			if dirty {
				set[i].dirty = true
			}
			return 0, false // already resident
		}
		if !set[i].valid {
			lruIdx = i
		} else if set[lruIdx].valid && set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	v := &set[lruIdx]
	if v.valid && v.dirty {
		victim = v.tag << c.shift
		hasVictim = true
		c.stats.Writebacks++
	}
	v.valid = true
	v.dirty = dirty
	v.tag = lineAddr
	v.lru = c.tick
	return victim, hasVictim
}
