package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPASetBorrowingStress floods single preferred sets so entries borrow
// heavily, then verifies every tracked row remains findable, removable, and
// that SB bookkeeping never strands an entry.
func TestPASetBorrowingStress(t *testing.T) {
	const ways, cap = 4, 32 // 8 sets
	tb := newPATable(cap, ways)
	sets := tb.Sets()

	// 16 rows that all prefer set 0 (row % sets == 0): 4 fit, 12 borrow.
	rows := make([]int, 16)
	for i := range rows {
		rows[i] = i * sets * 8 // multiples of sets → preferred set 0
	}
	count(t, tb, rows...)
	for _, r := range rows {
		if _, ok := tb.Lookup(r); !ok {
			t.Fatalf("row %d lost after borrowing", r)
		}
	}
	// Remove in an order that interleaves native and borrowed entries.
	for i, r := range rows {
		if i%2 == 0 {
			tb.Remove(r)
		}
	}
	for i, r := range rows {
		_, ok := tb.Lookup(r)
		if i%2 == 0 && ok {
			t.Fatalf("removed row %d still tracked", r)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("surviving row %d lost", r)
		}
	}
	// Refill: freed capacity must be reusable.
	for i := 0; i < 8; i++ {
		count(t, tb, 1+i*sets)
	}
}

// TestPARandomOpsMatchFA drives random count/remove/prune sequences
// through pa and fa tables and requires identical visible state throughout.
func TestPARandomOpsMatchFA(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fa := newPATable(48, 48)
		pa := newPATable(48, 4)
		for op := 0; op < 2000; op++ {
			row := rng.Intn(64)
			switch rng.Intn(10) {
			case 0:
				fa.Remove(row)
				pa.Remove(row)
			case 1:
				fa.Prune(3)
				pa.Prune(3)
			default:
				ef, _, errF := fa.Count(row)
				ep, _, errP := pa.Count(row)
				if ef != ep || (errF == nil) != (errP == nil) {
					return false
				}
			}
			if fa.Len() != pa.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
