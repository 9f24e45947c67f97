package core

import (
	"testing"
	"testing/quick"
)

func TestFATableBasics(t *testing.T) {
	tb := newPATable(4, 4)
	if tb.Cap() != 4 || tb.Len() != 0 {
		t.Fatal("fresh table geometry wrong")
	}
	if _, ok := tb.Touch(5); ok {
		t.Fatal("touch of untracked row succeeded")
	}
	if err := tb.Insert(5); err != nil {
		t.Fatal(err)
	}
	e, ok := tb.Lookup(5)
	if !ok || e.ActCnt != 1 || e.Life != 1 {
		t.Fatalf("fresh entry = %+v", e)
	}
	e, ok = tb.Touch(5)
	if !ok || e.ActCnt != 2 {
		t.Fatalf("touched entry = %+v", e)
	}
	tb.Remove(5)
	if tb.Len() != 0 {
		t.Fatal("remove failed")
	}
	tb.Remove(5) // idempotent
}

func TestFATableFull(t *testing.T) {
	tb := newPATable(2, 2)
	if err := tb.Insert(1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := tb.Insert(2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(3); err == nil {
		t.Error("insert into full table accepted")
	}
	tb.Remove(1)
	if err := tb.Insert(3); err != nil {
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
			if err := tb.Insert(r); err != nil {
				t.Fatalf("capacity %d: insert of row %d: %v", n, r, err)
			}
		}
		if err := tb.Insert(n); err == nil {
			t.Errorf("capacity %d: entry %d accepted", n, n+1)
		}
	}
	sep := newSepTable(0, 8, 1)
	if sep.Cap() != 8 {
		t.Fatalf("newSepTable(0, 8, 1).Cap() = %d, want 8", sep.Cap())
	}
	if err := sep.Insert(1); err != nil {
		t.Fatal(err)
	}
	if spills := sep.Ops().Spills; spills != 1 || sep.NarrowLen() != 0 || sep.WideLen() != 1 {
		t.Errorf("first insert: %d spills, narrow/wide %d/%d; want 1 spill, 0/1", spills, sep.NarrowLen(), sep.WideLen())
	}
}

func TestFAPrune(t *testing.T) {
	tb := newPATable(8, 8)
	for _, r := range []int{1, 2, 3} {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		tb.Touch(1) // row 1: 4 ACTs
	}
	tb.Touch(2) // row 2: 2 ACTs
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
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// All three rows must remain findable.
	for _, r := range []int{0, 2, 4} {
		if _, ok := tb.Lookup(r); !ok {
			t.Errorf("row %d lost after borrowing", r)
		}
		if _, ok := tb.Touch(r); !ok {
			t.Errorf("row %d untouchable after borrowing", r)
		}
	}
	// Removing the borrowed entry clears the SB indicator: after removal a
	// lookup of another missing even row must probe only the preferred set.
	before := tb.Ops().SetsProbed
	tb.Touch(6) // miss: probes preferred set + the borrowing set
	probesWithBorrow := tb.Ops().SetsProbed - before
	if probesWithBorrow != 2 {
		t.Errorf("miss with borrow probed %d sets, want 2", probesWithBorrow)
	}
	tb.Remove(4)
	before = tb.Ops().SetsProbed
	tb.Touch(6) // miss: SB indicator is zero again, only preferred probed
	if got := tb.Ops().SetsProbed - before; got != 1 {
		t.Errorf("miss after unborrow probed %d sets, want 1", got)
	}
}

func TestPAPreferredHitEnergyPath(t *testing.T) {
	tb := newPATable(16, 4)
	if err := tb.Insert(1); err != nil {
		t.Fatal(err)
	}
	tb.Touch(1)
	ops := tb.Ops()
	if ops.PreferredHits != 1 {
		t.Errorf("preferred hits = %d, want 1", ops.PreferredHits)
	}
	if ops.SetsProbed != 1 {
		t.Errorf("sets probed = %d, want 1 (common-case single-set search)", ops.SetsProbed)
	}
}

func TestPAFull(t *testing.T) {
	tb := newPATable(4, 2)
	for r := 0; r < 4; r++ {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Insert(9); err == nil {
		t.Error("insert into full pa table accepted")
	}
	if err := tb.Insert(0); err == nil {
		t.Error("duplicate insert accepted")
	}
}

func TestSeparatedGraduation(t *testing.T) {
	tb := newSepTable(4, 4, 4)
	if err := tb.Insert(1); err != nil {
		t.Fatal(err)
	}
	if tb.NarrowLen() != 1 || tb.WideLen() != 0 {
		t.Fatal("fresh entry not in narrow sub-table")
	}
	tb.Touch(1)
	tb.Touch(1)
	if tb.NarrowLen() != 1 {
		t.Fatal("entry graduated early")
	}
	e, ok := tb.Touch(1) // 4th ACT: graduates
	if !ok || e.ActCnt != 4 {
		t.Fatalf("post-graduation entry = %+v", e)
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
		if err := tb.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", r, err)
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
	_ = tb.Insert(1)
	for i := 0; i < 3; i++ {
		tb.Touch(1)
	}
	_ = tb.Insert(2) // stays narrow with 1 ACT
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
		_ = tb.Insert(1)
		snap := tb.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("%s: snapshot len %d", name, len(snap))
		}
		snap[0].ActCnt = 999
		if e, _ := tb.Lookup(1); e.ActCnt == 999 {
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

// TestTouchMatchesLookupPlusIncrement cross-checks Touch semantics across
// organizations under random operations.
func TestTouchMatchesLookupPlusIncrement(t *testing.T) {
	f := func(rows []uint8) bool {
		fa, pa, sep := newPATable(64, 64), newPATable(64, 8), newSepTable(16, 48, 4)
		for _, r := range rows {
			row := int(r % 32)
			for _, tb := range []Table{fa, pa, sep} {
				if _, ok := tb.Touch(row); !ok {
					if err := tb.Insert(row); err != nil {
						return false
					}
				}
			}
			ef, _ := fa.Lookup(row)
			ep, _ := pa.Lookup(row)
			es, _ := sep.Lookup(row)
			if ef != ep || ef != es {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
