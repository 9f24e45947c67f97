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

// Cache is one set-associative write-back, write-allocate cache. Its lines
// are one flat array: set s holds lines[s*Ways : (s+1)*Ways].
type Cache struct {
	cfg   Config //twicelint:keep geometry, fixed at construction
	lines []line
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
	return &Cache{
		cfg:   cfg,
		lines: make([]line, nsets*cfg.Ways),
		mask:  uint64(nsets - 1),
		shift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}, nil
}

// Reset invalidates every line and zeroes the LRU clock and counters,
// returning the cache to its just-constructed state without reallocating.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.stats = Stats{}
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// lookup scans the set of lineAddr once. It returns the line holding
// lineAddr and true, or the way to allocate and false: the last invalid
// way, else the least recently used line.
func (c *Cache) lookup(lineAddr uint64) (*line, bool) {
	ways := uint64(c.cfg.Ways)
	base := (lineAddr & c.mask) * ways
	set := c.lines[base : base+ways]
	v := &set[0]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == lineAddr {
			return l, true
		}
		if !l.valid || (v.valid && l.lru < v.lru) {
			v = l
		}
	}
	return v, false
}

// install allocates lineAddr into way v, stamped now, and returns the
// evicted line's base address when it was dirty (a writeback).
func (c *Cache) install(v *line, lineAddr uint64, dirty bool) (victim uint64, hasVictim bool) {
	if v.valid && v.dirty {
		victim = v.tag << c.shift
		hasVictim = true
		c.stats.Writebacks++
	}
	*v = line{valid: true, dirty: dirty, tag: lineAddr, lru: c.tick}
	return victim, hasVictim
}

// Access looks up the line containing addr, allocating it on miss. It
// returns whether the access hit and, when the allocation evicted a dirty
// line, that victim's base address.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, hasVictim bool) {
	c.tick++
	lineAddr := addr >> c.shift
	l, resident := c.lookup(lineAddr)
	if resident {
		l.lru = c.tick
		l.dirty = l.dirty || write
		c.stats.Hits++
		return true, 0, false
	}
	c.stats.Misses++
	victim, hasVictim = c.install(l, lineAddr, write)
	return false, victim, hasVictim
}

// Fill inserts the line containing addr without counting a demand access
// (prefetch fills and writeback allocations) and reports whether the line
// was already resident. A resident line absorbs the fill: it keeps its LRU
// stamp and takes the dirty bit, if set. Otherwise the fill allocates and
// returns a dirty victim like Access.
func (c *Cache) Fill(addr uint64, dirty bool) (resident bool, victim uint64, hasVictim bool) {
	c.tick++
	lineAddr := addr >> c.shift
	l, resident := c.lookup(lineAddr)
	if resident {
		l.dirty = l.dirty || dirty
		return true, 0, false
	}
	victim, hasVictim = c.install(l, lineAddr, dirty)
	return false, victim, hasVictim
}
