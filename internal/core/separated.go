package core

import "fmt"

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
	narrow *paTable // entries with ActCnt < graduate
	wide   *paTable // entries with ActCnt ≥ graduate
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

//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *sepTable) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	t.ops.SetsProbed++ // both sub-tables are searched concurrently (one CAM cycle)
	if e, ok := t.wide.Touch(row); ok {
		return e, true
	}
	e, ok := t.narrow.Touch(row)
	if !ok {
		return Entry{}, false
	}
	if e.ActCnt >= t.graduate {
		// Graduate: move narrow -> wide preserving counts. The sizing
		// theorem bounds wide occupancy, so a full wide table is an
		// invariant violation, not an operational condition.
		t.narrow.Remove(row)
		if err := t.wide.Insert(row); err != nil {
			//twicelint:allocok panic path: sizing invariant violation is fatal
			panic(fmt.Sprintf("core: separated wide sub-table overflow: %v", err))
		}
		t.wide.set(row, e)
		return e, true
	}
	return e, true
}

func (t *sepTable) Lookup(row int) (Entry, bool) {
	if e, ok := t.wide.Lookup(row); ok {
		return e, true
	}
	return t.narrow.Lookup(row)
}

func (t *sepTable) Insert(row int) error {
	if _, ok := t.Lookup(row); ok {
		return fmt.Errorf("core: insert of already-tracked row %d", row)
	}
	// Fresh rows prefer the narrow sub-table; when more than narrowCap
	// fresh rows are live in one PI the remainder borrow wide slots (§6.2's
	// accounting leaves exactly maxact/thPI wide slots spare for this). The
	// spill decision checks occupancy up front rather than trying the narrow
	// insert and catching its error, because constructing that error would
	// put an allocation on the per-ACT path whenever the narrow table runs
	// full (the already-tracked case was excluded by the Lookup above).
	if t.narrow.Len() < t.narrow.Cap() {
		if err := t.narrow.Insert(row); err != nil {
			return fmt.Errorf("core: separated narrow sub-table: %w", err)
		}
	} else {
		if err := t.wide.Insert(row); err != nil {
			return fmt.Errorf("core: separated table full: %w", err)
		}
		t.ops.Spills++
	}
	t.ops.Inserts++
	if n := t.Len(); n > t.ops.PeakOccupancy {
		t.ops.PeakOccupancy = n
	}
	return nil
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
