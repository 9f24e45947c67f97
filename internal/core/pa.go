package core

import "fmt"

// paTable is the pseudo-associative organization (pa-TWiCe, §6.1): the table
// is split into sets; each row has a preferred set (row mod #sets) and is
// normally stored there. When the preferred set is full the entry borrows a
// slot in another set and the host set's set-borrowing (SB) indicator for the
// preferred set is incremented, so later lookups know which non-preferred
// sets can possibly hold the row. Common-case lookups touch a single set,
// which is where the energy saving over fa-TWiCe comes from.
type paTable struct {
	ways int       //twicelint:keep geometry, fixed at construction
	sets [][]Entry // sets[s][w]; Row < 0 marks an empty way
	sb   [][]int   // sb[host][preferred] = entries of `preferred` stored in `host`
	len  int
	ops  OpStats
}

// newPATable builds a pseudo-associative table with enough sets of the given
// way count to hold capacity entries.
func newPATable(capacity, ways int) *paTable {
	nsets := (capacity + ways - 1) / ways
	if nsets < 1 {
		nsets = 1
	}
	t := &paTable{
		ways: ways,
		sets: make([][]Entry, nsets),
		sb:   make([][]int, nsets),
	}
	for s := range t.sets {
		t.sets[s] = make([]Entry, ways)
		t.sb[s] = make([]int, nsets)
	}
	t.Clear()
	return t
}

func (t *paTable) preferred(row int) int { return row % len(t.sets) }

// findInSet scans one set for the row; returns the way index or -1.
func (t *paTable) findInSet(s, row int) int {
	for w := range t.sets[s] {
		if t.sets[s][w].Row == row {
			return w
		}
	}
	return -1
}

// locate finds the row, probing the preferred set first and then any set
// whose SB indicator shows borrowed entries for the preferred set. It
// updates probe statistics when counted is true.
func (t *paTable) locate(row int, counted bool) (set, way int) {
	p := t.preferred(row)
	if counted {
		t.ops.SetsProbed++
	}
	if w := t.findInSet(p, row); w >= 0 {
		if counted {
			t.ops.PreferredHits++
		}
		return p, w
	}
	for s := range t.sets {
		if s == p || t.sb[s][p] == 0 {
			continue
		}
		if counted {
			t.ops.SetsProbed++
		}
		if w := t.findInSet(s, row); w >= 0 {
			return s, w
		}
	}
	return -1, -1
}

//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *paTable) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	s, w := t.locate(row, true)
	if s < 0 {
		return Entry{}, false
	}
	t.sets[s][w].ActCnt++
	return t.sets[s][w], true
}

func (t *paTable) Lookup(row int) (Entry, bool) {
	s, w := t.locate(row, false)
	if s < 0 {
		return Entry{}, false
	}
	return t.sets[s][w], true
}

func (t *paTable) emptyWay(s int) int {
	for w := range t.sets[s] {
		if t.sets[s][w].Row < 0 {
			return w
		}
	}
	return -1
}

func (t *paTable) Insert(row int) error {
	if s, _ := t.locate(row, false); s >= 0 {
		return fmt.Errorf("core: insert of already-tracked row %d", row)
	}
	p := t.preferred(row)
	s, w := p, t.emptyWay(p)
	if w < 0 {
		s = -1
		for q := range t.sets {
			if q == p {
				continue
			}
			if ww := t.emptyWay(q); ww >= 0 {
				s, w = q, ww
				break
			}
		}
		if s < 0 {
			return fmt.Errorf("core: pa table full (%d entries); sizing invariant violated", t.Cap())
		}
		t.sb[s][p]++
		t.ops.Spills++
	}
	t.sets[s][w] = Entry{Row: row, ActCnt: 1, Life: 1}
	t.len++
	t.ops.Inserts++
	if t.len > t.ops.PeakOccupancy {
		t.ops.PeakOccupancy = t.len
	}
	return nil
}

func (t *paTable) invalidate(s, w int) {
	row := t.sets[s][w].Row
	if p := t.preferred(row); p != s {
		t.sb[s][p]--
	}
	t.sets[s][w].Row = -1
	t.len--
}

func (t *paTable) Remove(row int) {
	s, w := t.locate(row, false)
	if s < 0 {
		return
	}
	t.invalidate(s, w)
	t.ops.Removes++
}

func (t *paTable) Prune(thPI int) int {
	pruned := 0
	for s := range t.sets {
		for w := range t.sets[s] {
			e := &t.sets[s][w]
			if e.Row < 0 {
				continue
			}
			if e.ActCnt < thPI*e.Life {
				t.invalidate(s, w)
				pruned++
			} else {
				e.Life++
			}
		}
	}
	t.ops.Prunes++
	t.ops.EntriesPruned += int64(pruned)
	return pruned
}

// Clear implements Table: every way emptied, all set-borrowing indicators
// zeroed, counters reset — storage untouched.
func (t *paTable) Clear() {
	for s := range t.sets {
		for w := range t.sets[s] {
			t.sets[s][w].Row = -1
		}
		for p := range t.sb[s] {
			t.sb[s][p] = 0
		}
	}
	t.len = 0
	t.ops = OpStats{}
}

func (t *paTable) Len() int { return t.len }
func (t *paTable) Cap() int { return len(t.sets) * t.ways }

func (t *paTable) Snapshot() []Entry {
	out := make([]Entry, 0, t.len)
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].Row >= 0 {
				out = append(out, t.sets[s][w])
			}
		}
	}
	return out
}

func (t *paTable) Ops() OpStats { return t.ops }

// Sets returns the set count (for area/energy reporting).
func (t *paTable) Sets() int { return len(t.sets) }
