package core

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestFATableBasics(t *testing.T) {
	tb := newPATable(4, 4)
	if tb.Cap() != 4 || tb.Len() != 0 {
		t.Fatal("fresh table geometry wrong")
	}
	e, spilled, err := tb.Count(5)
	if err != nil || spilled || e != (Entry{Row: 5, ActCnt: 1, Life: 1}) {
		t.Fatalf("first Count = %+v, %v, %v; want a fresh entry", e, spilled, err)
	}
	if got, ok := tb.Lookup(5); !ok || got != e {
		t.Fatalf("fresh entry = %+v", got)
	}
	if e, _, err = tb.Count(5); err != nil || e.ActCnt != 2 {
		t.Fatalf("counted entry = %+v, %v", e, err)
	}
	tb.Remove(5)
	if tb.Len() != 0 {
		t.Fatal("remove failed")
	}
	tb.Remove(5) // idempotent
}

func TestFATableFull(t *testing.T) {
	tb := newPATable(2, 2)
	for _, r := range []int{1, 2} {
		if _, _, err := tb.Count(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tb.Count(3); !errors.Is(err, errTableFull) {
		t.Errorf("Count of a third row into a full table = %v, want errTableFull", err)
	}
	if _, ok := tb.Lookup(3); ok || tb.Len() != 2 {
		t.Errorf("refused row tracked, Len %d", tb.Len())
	}
	if e, _, err := tb.Count(1); err != nil || e.ActCnt != 2 {
		t.Errorf("full table counts a tracked row as %+v, %v", e, err)
	}
	tb.Remove(1)
	if _, _, err := tb.Count(3); err != nil {
		t.Errorf("insert after free failed: %v", err)
	}
}

// TestOneSetCapacityIsExact pins the one-set tables' capacity: an fa table
// of capacity n holds exactly n entries, 0 included, and a separated table
// whose narrow sub-table is empty (thPI = 1) spills its first fresh row into
// the wide one.
func TestOneSetCapacityIsExact(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 65, 556} {
		tb := newPATable(n, n)
		if tb.Cap() != n {
			t.Fatalf("fa table of capacity %d has Cap() %d", n, tb.Cap())
		}
		for r := 0; r < n; r++ {
			if _, _, err := tb.Count(r); err != nil {
				t.Fatalf("capacity %d: insert of row %d: %v", n, r, err)
			}
		}
		if _, _, err := tb.Count(n); err == nil {
			t.Errorf("capacity %d: entry %d accepted", n, n+1)
		}
	}
	sep := newSepTable(0, 8, 1)
	if sep.Cap() != 8 {
		t.Fatalf("newSepTable(0, 8, 1).Cap() = %d, want 8", sep.Cap())
	}
	if _, spilled, err := sep.Count(1); err != nil || !spilled {
		t.Fatalf("first Count: spilled %v, %v; want a spill", spilled, err)
	}
	if spills := sep.Ops().Spills; spills != 1 || sep.NarrowLen() != 0 || sep.WideLen() != 1 {
		t.Errorf("first insert: %d spills, narrow/wide %d/%d; want 1 spill, 0/1", spills, sep.NarrowLen(), sep.WideLen())
	}
}

// count applies Count to each row in turn and fails t on an error.
func count(t *testing.T, tb Table, rows ...int) {
	t.Helper()
	for _, r := range rows {
		if _, _, err := tb.Count(r); err != nil {
			t.Fatalf("Count(%d): %v", r, err)
		}
	}
}

func TestFAPrune(t *testing.T) {
	tb := newPATable(8, 8)
	count(t, tb, 1, 2, 3, 1, 1, 1, 2) // row 1: 4 ACTs; row 2: 2; row 3: 1
	pruned := tb.Prune(4)
	if pruned != 2 {
		t.Errorf("pruned %d entries, want 2", pruned)
	}
	e, ok := tb.Lookup(1)
	if !ok {
		t.Fatal("survivor pruned")
	}
	if e.Life != 2 {
		t.Errorf("survivor life = %d, want 2", e.Life)
	}
}

func TestPASetBorrowing(t *testing.T) {
	// 2 sets × 2 ways; rows 0,2,4,6 prefer set 0.
	tb := newPATable(4, 2)
	if tb.Sets() != 2 {
		t.Fatalf("sets = %d, want 2", tb.Sets())
	}
	for _, r := range []int{0, 2, 4} { // third must borrow set 1
		if _, spilled, err := tb.Count(r); err != nil || spilled != (r == 4) {
			t.Fatalf("Count(%d): spilled %v, %v", r, spilled, err)
		}
	}
	// All three rows must remain findable.
	for _, r := range []int{0, 2, 4} {
		if _, ok := tb.Lookup(r); !ok {
			t.Errorf("row %d lost after borrowing", r)
		}
		if e, _, err := tb.Count(r); err != nil || e.ActCnt != 2 {
			t.Errorf("row %d counted as %+v, %v after borrowing", r, e, err)
		}
	}
	// A miss probes the preferred set and the set borrowing from it, then
	// borrows there too.
	before := tb.Ops().SetsProbed
	if _, spilled, err := tb.Count(6); err != nil || !spilled {
		t.Fatalf("Count(6): spilled %v, %v; want a borrow", spilled, err)
	}
	if got := tb.Ops().SetsProbed - before; got != 2 {
		t.Errorf("miss with borrow probed %d sets, want 2", got)
	}
	// Removing the borrowed entries clears the SB indicator: the next miss
	// of an even row probes only the preferred set.
	tb.Remove(4)
	tb.Remove(6)
	before = tb.Ops().SetsProbed
	count(t, tb, 8)
	if got := tb.Ops().SetsProbed - before; got != 1 {
		t.Errorf("miss after unborrow probed %d sets, want 1", got)
	}
}

func TestPAPreferredHitEnergyPath(t *testing.T) {
	tb := newPATable(16, 4)
	count(t, tb, 1, 1) // a miss that inserts, then a hit
	ops := tb.Ops()
	if ops.Searches != 2 || ops.SetsProbed != 2 {
		t.Errorf("%d searches probed %d sets, want 2 and 2 (common-case single-set search)", ops.Searches, ops.SetsProbed)
	}
	if ops.PreferredHits != 1 {
		t.Errorf("preferred hits = %d, want 1", ops.PreferredHits)
	}
}

func TestPAFull(t *testing.T) {
	tb := newPATable(4, 2)
	count(t, tb, 0, 1, 2, 3)
	if _, _, err := tb.Count(9); err == nil {
		t.Error("insert into full pa table accepted")
	}
	if e, _, err := tb.Count(0); err != nil || e.ActCnt != 2 {
		t.Errorf("full pa table counts a tracked row as %+v, %v", e, err)
	}
}

func TestSeparatedGraduation(t *testing.T) {
	tb := newSepTable(4, 4, 4)
	count(t, tb, 1)
	if tb.NarrowLen() != 1 || tb.WideLen() != 0 {
		t.Fatal("fresh entry not in narrow sub-table")
	}
	count(t, tb, 1, 1)
	if tb.NarrowLen() != 1 {
		t.Fatal("entry graduated early")
	}
	e, _, err := tb.Count(1) // 4th ACT: graduates
	if err != nil || e.ActCnt != 4 {
		t.Fatalf("post-graduation entry = %+v, %v", e, err)
	}
	if tb.NarrowLen() != 0 || tb.WideLen() != 1 {
		t.Errorf("narrow/wide = %d/%d after graduation, want 0/1", tb.NarrowLen(), tb.WideLen())
	}
	// Counts preserved across the move.
	if e2, ok := tb.Lookup(1); !ok || e2.ActCnt != 4 || e2.Life != 1 {
		t.Errorf("graduated entry = %+v", e2)
	}
}

func TestSeparatedSpillsIntoWide(t *testing.T) {
	tb := newSepTable(2, 4, 4)
	for r := 0; r < 4; r++ {
		if _, spilled, err := tb.Count(r); err != nil || spilled != (r >= 2) {
			t.Fatalf("Count(%d): spilled %v, %v", r, spilled, err)
		}
	}
	if tb.NarrowLen() != 2 || tb.WideLen() != 2 {
		t.Errorf("narrow/wide = %d/%d, want 2/2 (spill)", tb.NarrowLen(), tb.WideLen())
	}
	for r := 0; r < 4; r++ {
		if _, ok := tb.Lookup(r); !ok {
			t.Errorf("spilled row %d lost", r)
		}
	}
}

func TestSeparatedPrune(t *testing.T) {
	tb := newSepTable(4, 4, 4)
	count(t, tb, 1, 1, 1, 1, 2) // row 1 graduates; row 2 stays narrow with 1 ACT
	pruned := tb.Prune(4)
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1 (the cold narrow entry)", pruned)
	}
	if e, ok := tb.Lookup(1); !ok || e.Life != 2 {
		t.Errorf("wide survivor = %+v ok=%v", e, ok)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	for name, tb := range map[string]Table{
		"fa":  newPATable(8, 8),
		"pa":  newPATable(8, 4),
		"sep": newSepTable(4, 4, 4),
	} {
		count(t, tb, 1)
		snap := tb.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("%s: snapshot len %d", name, len(snap))
		}
		snap[0].ActCnt = 999
		if e, _ := lookup(tb, 1); e.ActCnt == 999 {
			t.Errorf("%s: snapshot aliases table storage", name)
		}
	}
}

// TestTableBoundFormulaMonotonic checks that the bound grows with maxact and
// shrinks as thPI grows, matching the paper's qualitative discussion.
func TestTableBoundFormulaMonotonic(t *testing.T) {
	f := func(a, b uint8) bool {
		maxact := 10 + int(a%200)
		thPI := 1 + int(b%16)
		base := tableBound(maxact, thPI, 1024)
		return tableBound(maxact+10, thPI, 1024) >= base &&
			tableBound(maxact, thPI+1, 1024) <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableBoundDegenerateThPI(t *testing.T) {
	if got := tableBound(10, 0, 4); got != 40 {
		t.Errorf("degenerate bound = %d, want maxact×maxlife = 40", got)
	}
}

// TestTouchMatchesLookupPlusIncrement cross-checks Count, an ACT's touch of
// its row, across organizations under random rows: each returns the entry
// Lookup held before plus one ACT, or a fresh entry, and all three agree.
func TestTouchMatchesLookupPlusIncrement(t *testing.T) {
	f := func(rows []uint8) bool {
		tables := []Table{newPATable(64, 64), newPATable(64, 8), newSepTable(16, 48, 4)}
		for _, r := range rows {
			row := int(r % 32)
			var es []Entry
			for _, tb := range tables {
				want, ok := lookup(tb, row)
				want.ActCnt++
				if !ok {
					want = Entry{Row: row, ActCnt: 1, Life: 1}
				}
				e, _, err := tb.Count(row)
				if got, _ := lookup(tb, row); err != nil || e != want || got != e {
					return false
				}
				es = append(es, e)
			}
			if es[0] != es[1] || es[0] != es[2] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
