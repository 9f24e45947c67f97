package core

import (
	"fmt"
	"math/bits"
)

// Entry is one TWiCe counter-table entry (Figure 3 of the paper): the row it
// tracks, the activation count accumulated since insertion, and the number of
// consecutive pruning intervals the entry has stayed valid.
type Entry struct {
	Row    int
	ActCnt int
	Life   int
}

// OpStats counts table operations for the energy model (Table 3): searches
// performed, how many sets each search touched (pa-TWiCe), insertions, and
// prune-time table updates.
type OpStats struct {
	Searches      int64 // lookup operations (one per ACT)
	SetsProbed    int64 // total sets examined across all searches (fa: 1 per search)
	PreferredHits int64 // pa-TWiCe searches satisfied by the preferred set alone
	Inserts       int64
	Spills        int64 // inserts landing outside the preferred location (pa set borrow, sep wide spill)
	Removes       int64
	Prunes        int64 // prune passes (one table update per auto-refresh)
	EntriesPruned int64
	PeakOccupancy int // high-water mark of valid entries
}

// Table is one per-bank TWiCe counter table. Implementations differ only in
// physical organization (fully-associative CAM, pseudo-associative SRAM,
// separated sub-tables); their visible counting behaviour must be identical,
// which the equivalence property tests enforce.
type Table interface {
	// Touch searches for the row and, if tracked, increments its activation
	// count, returning the post-increment entry. It returns false for
	// untracked rows.
	Touch(row int) (Entry, bool)
	// Lookup returns the entry for row without side effects (test and
	// report hook; does not count as a search in the energy model).
	Lookup(row int) (Entry, bool)
	// Insert adds a fresh entry (ActCnt 1, Life 1) for an untracked row.
	// It fails only if the table is full — which the sizing theorem
	// (§4.4) guarantees cannot happen for a correctly sized table.
	Insert(row int) error
	// Remove invalidates the entry for row, if present.
	Remove(row int)
	// Prune applies the end-of-interval rule: entries with
	// ActCnt < thPI×Life are invalidated; survivors get Life+1.
	// It returns the number of entries invalidated.
	Prune(thPI int) int
	// Len returns the number of valid entries; Cap the capacity.
	Len() int
	Cap() int
	// Snapshot returns a copy of all valid entries in unspecified order.
	Snapshot() []Entry
	// Ops returns operation counters since construction.
	Ops() OpStats
	// Clear empties the table and zeroes its operation counters without
	// releasing storage, leaving it indistinguishable from a freshly
	// constructed table. Machine reuse and TWiCe.Reset depend on that
	// just-constructed equivalence (including free-slot ordering, so that
	// post-clear insertions land in the same slots a fresh table would use).
	Clear()
}

// faTable is the fully-associative organization (fa-TWiCe): conceptually a
// CAM over row_addr searched in parallel. The simulator realises it as a
// dense entry pool with a row index; the CAM cost shows up only in the
// energy model, not in behaviour. The index is an open-addressed intMap
// rather than a Go map because Touch runs once per simulated ACT. A
// live-slot bitmap says which slots hold an entry, so Prune and Snapshot
// walk live entries only, in ascending slot order.
type faTable struct {
	entries []Entry //twicelint:keep stale slots are unreadable; live is the source of truth
	live    []uint64
	free    []int
	index   *intMap // row -> slot
	ops     OpStats
}

// newFATable builds a fully-associative table with the given capacity.
func newFATable(capacity int) *faTable {
	t := &faTable{
		entries: make([]Entry, capacity),
		live:    make([]uint64, (capacity+63)/64),
		free:    make([]int, 0, capacity),
		index:   newIntMap(capacity),
	}
	t.Clear()
	return t
}

//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *faTable) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	t.ops.SetsProbed++
	i, ok := t.index.get(row)
	if !ok {
		return Entry{}, false
	}
	t.entries[i].ActCnt++
	return t.entries[i], true
}

func (t *faTable) Lookup(row int) (Entry, bool) {
	if i, ok := t.index.get(row); ok {
		return t.entries[i], true
	}
	return Entry{}, false
}

func (t *faTable) Insert(row int) error {
	if _, ok := t.index.get(row); ok {
		//twicelint:allocok cold error path: caller bug, not steady state
		return fmt.Errorf("core: insert of already-tracked row %d", row)
	}
	if len(t.free) == 0 {
		//twicelint:allocok cold error path: sizing invariant violation
		return fmt.Errorf("core: fa table full (%d entries); sizing invariant violated", len(t.entries))
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	t.entries[i] = Entry{Row: row, ActCnt: 1, Life: 1}
	t.live[i>>6] |= 1 << (i & 63)
	t.index.put(row, i)
	t.ops.Inserts++
	if n := t.index.len(); n > t.ops.PeakOccupancy {
		t.ops.PeakOccupancy = n
	}
	return nil
}

// set overwrites the stored entry for a tracked row; used by the separated
// table to move an entry between sub-tables without resetting its counts.
func (t *faTable) set(row int, e Entry) {
	if i, ok := t.index.get(row); ok {
		t.entries[i] = e
	}
}

func (t *faTable) Remove(row int) {
	i, ok := t.index.get(row)
	if !ok {
		return
	}
	t.index.del(row)
	t.live[i>>6] &^= 1 << (i & 63)
	//twicelint:allocok free list capacity equals the entry count, fixed at construction
	t.free = append(t.free, i)
	t.ops.Removes++
}

func (t *faTable) Prune(thPI int) int {
	pruned := 0
	// The range copies each word before its walk, so clearing bits in
	// t.live does not disturb the iteration. Pruned slots join the free
	// list in ascending order.
	entries := t.entries
	for wi, live := range t.live {
		for ; live != 0; live &= live - 1 {
			i := wi<<6 + bits.TrailingZeros64(live)
			e := &entries[i]
			if e.ActCnt < thPI*e.Life {
				t.index.del(e.Row)
				t.live[wi] &^= 1 << (i & 63)
				t.free = append(t.free, i)
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

// Clear implements Table. It is also how newFATable lays out the free
// list, in descending slot order, so a cleared table hands out slots in the
// exact sequence a fresh one would.
func (t *faTable) Clear() {
	clear(t.live)
	t.free = t.free[:0]
	for i := len(t.entries) - 1; i >= 0; i-- {
		t.free = append(t.free, i)
	}
	t.index.clear()
	t.ops = OpStats{}
}

func (t *faTable) Len() int { return t.index.len() }
func (t *faTable) Cap() int { return len(t.entries) }

func (t *faTable) Snapshot() []Entry {
	out := make([]Entry, 0, t.index.len())
	for wi, live := range t.live {
		for ; live != 0; live &= live - 1 {
			out = append(out, t.entries[wi<<6+bits.TrailingZeros64(live)])
		}
	}
	return out
}

func (t *faTable) Ops() OpStats { return t.ops }
