package cache

// Contains reports whether the line holding addr is resident, without side
// effects.
func (c *Cache) Contains(addr uint64) bool {
	_, resident := c.lookup(addr >> c.shift)
	return resident
}
