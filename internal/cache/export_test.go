package cache

// Prefetches returns the number of prefetch fills issued.
func (h *Hierarchy) Prefetches() int64 { return h.prefetches }
