package cpu

// Accesses returns the memory accesses issued so far.
func (c *Core) Accesses() int64 { return c.accesses }

// Outstanding returns the in-flight demand misses.
func (c *Core) Outstanding() int { return c.outstanding }
