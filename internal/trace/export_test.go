package trace

// Count returns the accesses written.
func (t *Writer) Count() int64 { return t.count }

// Len returns the number of recorded accesses.
func (r *Replayer) Len() int { return len(r.accesses) }
