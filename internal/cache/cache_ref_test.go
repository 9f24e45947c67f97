package cache

import "math/bits"

// cacheRef is the set-scanning cache the flat line array replaced, kept
// verbatim apart from its name: one slice per set, and the set scan copied
// into Access, Contains and Fill. TestCacheDifferentialVsSetScanReference
// pins Cache to it.
type cacheRef struct {
	cfg   Config
	sets  [][]line
	mask  uint64
	shift uint
	tick  int64
	stats Stats
}

// newCacheRef builds a reference cache.
func newCacheRef(cfg Config) (*cacheRef, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &cacheRef{
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
func (c *cacheRef) Reset() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.sets[s][w] = line{}
		}
	}
	c.tick = 0
	c.stats = Stats{}
}

// Stats returns the event counters.
func (c *cacheRef) Stats() Stats { return c.stats }

// Access looks up the line containing addr, allocating it on miss. It
// returns whether the access hit and, when the allocation evicted a dirty
// line, that victim's base address.
func (c *cacheRef) Access(addr uint64, write bool) (hit bool, victim uint64, hasVictim bool) {
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
func (c *cacheRef) Contains(addr uint64) bool {
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
func (c *cacheRef) Fill(addr uint64, dirty bool) (victim uint64, hasVictim bool) {
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
