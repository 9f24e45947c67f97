package core

// Sets returns the set count.
func (t *paTable) Sets() int { return len(t.hosts) }

// NarrowLen and WideLen expose sub-table occupancy.
func (t *sepTable) NarrowLen() int { return t.narrow.Len() }
func (t *sepTable) WideLen() int   { return t.wide.Len() }
