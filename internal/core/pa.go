package core

import "math/bits"

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

// scan walks the live ways of set s for the row. It returns the row's slot,
// or -1, and the set's lowest free way, or -1, which is complete only when
// the row was not found: a miss's one walk also finds where to insert.
func (t *paTable) scan(s, row int) (at, free int) {
	free = -1
	hi := (s + 1) * t.ways
	for i := s * t.ways; i < hi; {
		live, n := t.span(i, hi)
		if f := ^live & (uint64(1)<<n - 1); free < 0 && f != 0 {
			free = i + bits.TrailingZeros64(f)
		}
		for ; live != 0; live &= live - 1 {
			if j := i + bits.TrailingZeros64(live); t.entries[j].Row == row {
				return j, free
			}
		}
		i += n
	}
	return -1, free
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
// entries for the preferred set; on a miss, free is the preferred set's
// lowest free way (or -1). It updates probe statistics when counted is true.
func (t *paTable) locate(row int, counted bool) (at, free int) {
	p := t.preferred(row)
	if counted {
		t.ops.SetsProbed++
	}
	if at, free = t.scan(p, row); at >= 0 {
		if counted {
			t.ops.PreferredHits++
		}
		return at, free
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
		if i, _ := t.scan(s, row); i >= 0 {
			return i, free
		}
	}
	return -1, free
}

// Count implements Table with one search per ACT. A miss inserts into the
// free way its scan of the preferred set found; when that set is full, it
// borrows the lowest free way of the lowest-numbered set with room and
// raises that host's SB indicator for the preferred set.
//
//twicelint:hotpath per-ACT table op, reached through the Table interface
func (t *paTable) Count(row int) (e Entry, spilled bool, err error) {
	t.ops.Searches++
	i, free := t.locate(row, true)
	if i >= 0 {
		t.entries[i].ActCnt++
		return t.entries[i], false, nil
	}
	if free < 0 {
		p := t.preferred(row)
		for q := range t.hosts {
			if q == p {
				continue
			}
			if free = t.emptyWay(q); free >= 0 {
				k := p*len(t.hosts) + q
				if t.sb[k] == 0 {
					t.hosts[p]++
				}
				t.sb[k]++
				break
			}
		}
		if free < 0 {
			return Entry{}, false, errTableFull
		}
		t.ops.Spills++
		spilled = true
	}
	e = Entry{Row: row, ActCnt: 1, Life: 1}
	t.put(free, e)
	t.ops.Inserts++
	t.ops.PeakOccupancy = max(t.ops.PeakOccupancy, t.len)
	return e, spilled, nil
}

// put stores e in the free slot i; the separated table also moves a
// graduating entry with it.
func (t *paTable) put(i int, e Entry) {
	t.entries[i] = e
	t.live[i>>6] |= 1 << (i & 63)
	t.len++
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
	i, _ := t.locate(row, false)
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
