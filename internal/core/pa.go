package core

import (
	"fmt"
	"math/bits"
)

// paTable is the pseudo-associative organization (pa-TWiCe, §6.1): the table
// is split into sets; each row has a preferred set (row mod #sets) and is
// normally stored there. When the preferred set is full the entry borrows a
// slot in another set and the host set's set-borrowing (SB) indicator for the
// preferred set is incremented, so later lookups know which non-preferred
// sets can possibly hold the row. Common-case lookups touch a single set,
// which is where the energy saving over fa-TWiCe comes from.
//
// A table of one set whose ways are the whole capacity is the
// fully-associative organization (fa-TWiCe): its search scans the live
// entries, the CAM's parallel match done one entry at a time, and nothing
// is ever borrowed. The separated table's two sub-tables are such tables.
//
// Slot s*ways+w is way w of set s. The live-slot bitmap is the only record
// of which slots hold an entry, so set scans, Prune and Snapshot visit live
// entries only: a table under the S3 attack holds one live entry of its 448
// quick-scale slots, and its prune, which runs after every auto-refresh,
// costs what is live rather than the table's capacity. Walking the bitmap
// in ascending slot order is the set-major order of a set-by-set scan.
type paTable struct {
	ways    int     //twicelint:keep geometry, fixed at construction
	entries []Entry //twicelint:keep stale slots are unreadable; live is the source of truth
	live    []uint64
	// sb[p*nsets+host] is the SB indicator: entries preferring set p that
	// are stored in host. Laid out by preferred set, so a miss's sweep over
	// the hosts of one preferred set reads consecutive words.
	sb []int
	// hosts[p] counts the host sets whose SB indicator for p is non-zero: a
	// miss sweeps only while hosts remain, and not at all when nothing of p
	// is borrowed.
	hosts []int
	len   int
	ops   OpStats
}

// newPATable builds a pseudo-associative table with enough sets of the given
// way count to hold capacity entries. With ways = capacity it is one set of
// exactly capacity slots, 0 included: the separated table's narrow
// sub-table is empty at thPI = 1, and every fresh row must then spill.
func newPATable(capacity, ways int) *paTable {
	nsets := 1
	if capacity > ways {
		nsets = (capacity + ways - 1) / ways
	}
	slots := nsets * ways
	t := &paTable{
		ways:    ways,
		entries: make([]Entry, slots),
		live:    make([]uint64, (slots+63)/64),
		sb:      make([]int, nsets*nsets),
		hosts:   make([]int, nsets),
	}
	t.Clear()
	return t
}

func (t *paTable) preferred(row int) int { return row % len(t.hosts) }

// span returns the live bits of slots [i, min(hi, i's word end)), shifted so
// that bit 0 is slot i, and the number of slots n it covers.
func (t *paTable) span(i, hi int) (live uint64, n int) {
	n = min(hi-i, 64-i&63)
	return t.live[i>>6] >> (i & 63) & (uint64(1)<<n - 1), n
}

// findInSet scans the live ways of set s for the row; it returns the slot
// or -1.
func (t *paTable) findInSet(s, row int) int {
	hi := (s + 1) * t.ways
	for i := s * t.ways; i < hi; {
		live, n := t.span(i, hi)
		for ; live != 0; live &= live - 1 {
			if j := i + bits.TrailingZeros64(live); t.entries[j].Row == row {
				return j
			}
		}
		i += n
	}
	return -1
}

// emptyWay returns the first free slot of set s, or -1 if the set is full.
func (t *paTable) emptyWay(s int) int {
	hi := (s + 1) * t.ways
	for i := s * t.ways; i < hi; {
		live, n := t.span(i, hi)
		if free := ^live & (uint64(1)<<n - 1); free != 0 {
			return i + bits.TrailingZeros64(free)
		}
		i += n
	}
	return -1
}

// locate finds the row's slot (or -1), probing the preferred set first and
// then, in ascending set order, each set whose SB indicator shows borrowed
// entries for the preferred set. It updates probe statistics when counted
// is true.
func (t *paTable) locate(row int, counted bool) int {
	p := t.preferred(row)
	if counted {
		t.ops.SetsProbed++
	}
	if i := t.findInSet(p, row); i >= 0 {
		if counted {
			t.ops.PreferredHits++
		}
		return i
	}
	sb := t.sb[p*len(t.hosts):][:len(t.hosts)]
	for s, left := 0, t.hosts[p]; left > 0; s++ {
		if sb[s] == 0 {
			continue
		}
		left--
		if counted {
			t.ops.SetsProbed++
		}
		if i := t.findInSet(s, row); i >= 0 {
			return i
		}
	}
	return -1
}

//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *paTable) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	i := t.locate(row, true)
	if i < 0 {
		return Entry{}, false
	}
	t.entries[i].ActCnt++
	return t.entries[i], true
}

func (t *paTable) Lookup(row int) (Entry, bool) {
	if i := t.locate(row, false); i >= 0 {
		return t.entries[i], true
	}
	return Entry{}, false
}

func (t *paTable) Insert(row int) error {
	if t.locate(row, false) >= 0 {
		//twicelint:allocok cold error path: caller bug, not steady state
		return fmt.Errorf("core: insert of already-tracked row %d", row)
	}
	p := t.preferred(row)
	i := t.emptyWay(p)
	if i < 0 {
		for q := range t.hosts {
			if q == p {
				continue
			}
			if i = t.emptyWay(q); i >= 0 {
				k := p*len(t.hosts) + q
				if t.sb[k] == 0 {
					t.hosts[p]++
				}
				t.sb[k]++
				break
			}
		}
		if i < 0 {
			//twicelint:allocok cold error path: sizing invariant violation
			return fmt.Errorf("core: pa table full (%d entries); sizing invariant violated", t.Cap())
		}
		t.ops.Spills++
	}
	t.entries[i] = Entry{Row: row, ActCnt: 1, Life: 1}
	t.live[i>>6] |= 1 << (i & 63)
	t.len++
	t.ops.Inserts++
	if t.len > t.ops.PeakOccupancy {
		t.ops.PeakOccupancy = t.len
	}
	return nil
}

// set overwrites the stored entry for a tracked row; the separated table
// uses it to move an entry between sub-tables without resetting its counts.
func (t *paTable) set(row int, e Entry) {
	if i := t.locate(row, false); i >= 0 {
		t.entries[i] = e
	}
}

func (t *paTable) invalidate(i int) {
	if s, p := i/t.ways, t.preferred(t.entries[i].Row); p != s {
		k := p*len(t.hosts) + s
		t.sb[k]--
		if t.sb[k] == 0 {
			t.hosts[p]--
		}
	}
	t.live[i>>6] &^= 1 << (i & 63)
	t.len--
}

func (t *paTable) Remove(row int) {
	i := t.locate(row, false)
	if i < 0 {
		return
	}
	t.invalidate(i)
	t.ops.Removes++
}

func (t *paTable) Prune(thPI int) int {
	pruned := 0
	// The range copies each word before its walk, so invalidate clearing
	// bits in t.live does not disturb the iteration.
	entries := t.entries
	for wi, live := range t.live {
		for ; live != 0; live &= live - 1 {
			i := wi<<6 + bits.TrailingZeros64(live)
			e := &entries[i]
			if e.ActCnt < thPI*e.Life {
				t.invalidate(i)
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

// Clear implements Table: every slot freed, all set-borrowing indicators
// zeroed, counters reset — storage untouched.
func (t *paTable) Clear() {
	clear(t.live)
	clear(t.sb)
	clear(t.hosts)
	t.len = 0
	t.ops = OpStats{}
}

func (t *paTable) Len() int { return t.len }
func (t *paTable) Cap() int { return len(t.entries) }

func (t *paTable) Snapshot() []Entry {
	out := make([]Entry, 0, t.len)
	for wi, live := range t.live {
		for ; live != 0; live &= live - 1 {
			out = append(out, t.entries[wi<<6+bits.TrailingZeros64(live)])
		}
	}
	return out
}

func (t *paTable) Ops() OpStats { return t.ops }
