package core

// Sets returns the set count.
func (t *paTable) Sets() int { return len(t.hosts) }

// NarrowLen and WideLen expose sub-table occupancy.
func (t *sepTable) NarrowLen() int { return t.narrow.Len() }
func (t *sepTable) WideLen() int   { return t.wide.Len() }

// Lookup returns the entry for row without side effects; unlike Count, it
// is not a search of the energy model.
func (t *paTable) Lookup(row int) (Entry, bool) {
	if i, _ := t.locate(row, false); i >= 0 {
		return t.entries[i], true
	}
	return Entry{}, false
}

func (t *sepTable) Lookup(row int) (Entry, bool) {
	if e, ok := t.wide.Lookup(row); ok {
		return e, true
	}
	return t.narrow.Lookup(row)
}

// lookup is Lookup on a table of either type.
func lookup(tb Table, row int) (Entry, bool) {
	return tb.(interface{ Lookup(int) (Entry, bool) }).Lookup(row)
}
