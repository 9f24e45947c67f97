package trr

// Stats returns refresh and eviction counts; a high eviction rate under
// attack is the signature of a many-sided bypass.
func (t *TRR) Stats() (refreshes, evictions int64) {
	return t.refreshes, t.evictions
}
