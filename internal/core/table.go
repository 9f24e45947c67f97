package core

import "errors"

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
	PreferredHits int64 // searches satisfied by the preferred set alone (fa's one set: every hit)
	Inserts       int64
	Spills        int64 // inserts landing outside the preferred location (pa set borrow, sep wide spill)
	Removes       int64
	Prunes        int64 // prune passes (one table update per auto-refresh)
	EntriesPruned int64
	PeakOccupancy int // high-water mark of valid entries
}

// errTableFull is Count's error: the row has no free slot. The engine
// answers it with an immediate ARR for the row.
var errTableFull = errors.New("core: TWiCe table full; sizing invariant violated")

// Table is one per-bank TWiCe counter table. Implementations differ only in
// physical organization (pseudo-associative SRAM, whose one-set form is the
// fully-associative CAM, and separated sub-tables); their visible counting
// behaviour must be identical, which the equivalence property tests enforce.
type Table interface {
	// Count records one ACT of row: a tracked row's activation count is
	// incremented, and an untracked row gets a fresh entry (ActCnt 1,
	// Life 1). It returns the post-ACT entry and whether that fresh entry
	// was stored outside the row's preferred location. It fails only when
	// the row has no room, which the sizing theorem (§4.4) rules out for a
	// correctly sized table; the row is then left untracked.
	Count(row int) (e Entry, spilled bool, err error)
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
	// constructed table. TWiCe.Reset depends on that just-constructed
	// equivalence (including free-slot ordering, so that post-clear
	// insertions land in the same slots a fresh table would use); machine
	// reuse does not clear tables, since every grid cell builds a fresh
	// defense.
	Clear()
}
