package core

// sepTable is the separated-table organization (§6.2): a small sub-table of
// narrow entries (2-bit act_cnt) absorbs freshly inserted rows, and entries
// graduate to the wide sub-table (15-bit act_cnt) on their thPI-th
// activation. Only rows that have proven they can survive a pruning interval
// pay for a full-width counter, cutting table storage by ~13%.
//
// Each sub-table is fully associative, a one-set paTable. Counting
// behaviour is identical to the other organizations; the split is purely a
// storage optimization, which the equivalence property tests verify.
type sepTable struct {
	narrow *paTable // fresh entries with ActCnt < graduate
	wide   *paTable // graduated entries, and fresh ones spilled from a full narrow
	// graduate is the activation count at which an entry moves to the wide
	// sub-table. The paper uses thPI (= 4), matching the 2-bit counter.
	graduate int //twicelint:keep policy constant, fixed at construction
	ops      OpStats
}

// newSepTable builds a separated table. narrowCap/wideCap are the §6.2
// sizings (124 and 429+ for the default parameters); graduate is thPI.
func newSepTable(narrowCap, wideCap, graduate int) *sepTable {
	return &sepTable{
		narrow:   newPATable(narrowCap, narrowCap),
		wide:     newPATable(wideCap, wideCap),
		graduate: graduate,
	}
}

// Count implements Table with one search of each sub-table. A narrow entry
// that reaches graduate moves, counts kept, into the free wide slot the wide
// search found. A fresh row takes the narrow sub-table's free slot or, when
// more than narrowCap fresh rows are live in one PI, spills into the wide
// one's (§6.2's accounting leaves exactly maxact/thPI wide slots spare for
// this).
//
//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *sepTable) Count(row int) (e Entry, spilled bool, err error) {
	t.ops.Searches++
	t.ops.SetsProbed++ // both sub-tables are searched concurrently (one CAM cycle)
	w, wideFree := t.wide.locate(row, false)
	if w >= 0 {
		t.wide.entries[w].ActCnt++
		return t.wide.entries[w], false, nil
	}
	n, narrowFree := t.narrow.locate(row, false)
	if n >= 0 {
		t.narrow.entries[n].ActCnt++
		if e = t.narrow.entries[n]; e.ActCnt < t.graduate {
			return e, false, nil
		}
		// The sizing theorem bounds wide occupancy, so only a caller that
		// outruns DRAM pacing finds the wide sub-table full; the row is then
		// dropped, as a fresh row that finds no slot is.
		t.narrow.invalidate(n)
		if wideFree < 0 {
			return Entry{}, false, errTableFull
		}
		t.wide.put(wideFree, e)
		return e, false, nil
	}
	e = Entry{Row: row, ActCnt: 1, Life: 1}
	switch {
	case narrowFree >= 0:
		t.narrow.put(narrowFree, e)
	case wideFree >= 0:
		t.wide.put(wideFree, e)
		t.ops.Spills++
		spilled = true
	default:
		return Entry{}, false, errTableFull
	}
	t.ops.Inserts++
	t.ops.PeakOccupancy = max(t.ops.PeakOccupancy, t.Len())
	return e, spilled, nil
}

func (t *sepTable) Remove(row int) {
	before := t.Len()
	t.narrow.Remove(row)
	t.wide.Remove(row)
	if t.Len() != before {
		t.ops.Removes++
	}
}

func (t *sepTable) Prune(thPI int) int {
	// Narrow entries all have Life 1 and ActCnt < graduate, so with the
	// default graduate = thPI the rule prunes every one of them; run the
	// generic rule anyway so non-default graduate values stay correct.
	pruned := t.narrow.Prune(thPI) + t.wide.Prune(thPI)
	t.ops.Prunes++
	t.ops.EntriesPruned += int64(pruned)
	return pruned
}

// Clear implements Table: both sub-tables cleared, counters reset.
func (t *sepTable) Clear() {
	t.narrow.Clear()
	t.wide.Clear()
	t.ops = OpStats{}
}

func (t *sepTable) Len() int { return t.narrow.Len() + t.wide.Len() }
func (t *sepTable) Cap() int { return t.narrow.Cap() + t.wide.Cap() }

func (t *sepTable) Snapshot() []Entry {
	return append(t.narrow.Snapshot(), t.wide.Snapshot()...)
}

func (t *sepTable) Ops() OpStats { return t.ops }
