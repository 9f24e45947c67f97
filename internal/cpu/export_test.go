package cpu

// Outstanding returns the in-flight demand misses.
func (c *Core) Outstanding() int { return c.outstanding }
