package dram

// OpenRow returns the logical row currently open in the bank, or -1.
func (b *Bank) OpenRow() int { return b.openRow }

// StoredGroups returns, in ascending order, the 64-row groups whose
// disturbance counts the bank stores.
func (b *Bank) StoredGroups() []int {
	var groups []int
	for g, s := range b.slot {
		if s != 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// Slab returns the length and capacity, in counts, of the bank's count slab.
func (b *Bank) Slab() (length, capacity int) { return len(b.counts), cap(b.counts) }

// TotalFlips sums observed row-hammer flips across all banks.
func (d *Device) TotalFlips() int64 { return d.TotalStats().Flips }

// TotalStats sums per-bank statistics across the device.
func (d *Device) TotalStats() BankStats {
	var s BankStats
	for _, b := range d.banks {
		s.ACTs += b.stats.ACTs
		s.VictimACTs += b.stats.VictimACTs
		s.AutoRefreshes += b.stats.AutoRefreshes
		s.RowsRefreshed += b.stats.RowsRefreshed
		s.Flips += b.stats.Flips
	}
	return s
}

// Remapped returns the sorted list of remapped logical rows.
func (t *RemapTable) Remapped() []int {
	out := make([]int, len(t.remappedLogical))
	copy(out, t.remappedLogical)
	return out
}

// Count returns the number of remapped rows.
func (t *RemapTable) Count() int { return t.used() }
