package para

// Refreshes returns the number of victim refreshes issued across all banks.
func (pa *PARA) Refreshes() int64 { return pa.refreshes }
