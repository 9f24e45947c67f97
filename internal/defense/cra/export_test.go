package cra

// Stats returns cache behaviour counters.
func (c *CRA) Stats() (hits, misses, writebacks, detections int64) {
	return c.hits, c.misses, c.writebacks, c.detections
}

// MissRate returns the counter-cache miss rate.
func (c *CRA) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}
