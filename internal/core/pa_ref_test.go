package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// paRef is the set-scanning pseudo-associative table the live-slot bitmap
// version in pa.go replaced, kept verbatim as the reference that
// TestPADifferentialVsSetScanReference pins paTable to: every return value,
// Len, Snapshot order and the whole OpStats (SetsProbed, PreferredHits and
// Spills feed Table 3's energy model, and no golden digest covers them).
// Each way is scanned in full, a negative Row marks an empty way, and a miss
// sweeps every set for a non-zero SB indicator.
type paRef struct {
	ways int
	sets [][]Entry // sets[s][w]; Row < 0 marks an empty way
	sb   [][]int   // sb[host][preferred] = entries of `preferred` stored in `host`
	len  int
	ops  OpStats
}

func newPARef(capacity, ways int) *paRef {
	nsets := (capacity + ways - 1) / ways
	if nsets < 1 {
		nsets = 1
	}
	t := &paRef{
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

func (t *paRef) preferred(row int) int { return row % len(t.sets) }

func (t *paRef) findInSet(s, row int) int {
	for w := range t.sets[s] {
		if t.sets[s][w].Row == row {
			return w
		}
	}
	return -1
}

func (t *paRef) locate(row int, counted bool) (set, way int) {
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

func (t *paRef) Touch(row int) (Entry, bool) {
	t.ops.Searches++
	s, w := t.locate(row, true)
	if s < 0 {
		return Entry{}, false
	}
	t.sets[s][w].ActCnt++
	return t.sets[s][w], true
}

func (t *paRef) Lookup(row int) (Entry, bool) {
	s, w := t.locate(row, false)
	if s < 0 {
		return Entry{}, false
	}
	return t.sets[s][w], true
}

func (t *paRef) emptyWay(s int) int {
	for w := range t.sets[s] {
		if t.sets[s][w].Row < 0 {
			return w
		}
	}
	return -1
}

func (t *paRef) Insert(row int) error {
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

func (t *paRef) invalidate(s, w int) {
	row := t.sets[s][w].Row
	if p := t.preferred(row); p != s {
		t.sb[s][p]--
	}
	t.sets[s][w].Row = -1
	t.len--
}

func (t *paRef) Remove(row int) {
	s, w := t.locate(row, false)
	if s < 0 {
		return
	}
	t.invalidate(s, w)
	t.ops.Removes++
}

func (t *paRef) Prune(thPI int) int {
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

func (t *paRef) Clear() {
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

func (t *paRef) Len() int { return t.len }
func (t *paRef) Cap() int { return len(t.sets) * t.ways }

func (t *paRef) Snapshot() []Entry {
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

func (t *paRef) Ops() OpStats { return t.ops }

// checkPAOp applies op to the pa table and to the set-scanning reference —
// Count against the reference's Touch, then its Insert on a miss — and
// fails t at the first difference in a return value, Len, the Snapshot in
// order or the whole OpStats.
func checkPAOp(t testing.TB, step int, got *paTable, ref *paRef, op tableOp) {
	t.Helper()
	what := ""
	switch op.kind {
	case opCount:
		what = fmt.Sprintf("Count(%d)", op.row)
		spills := ref.Ops().Spills
		e, spilled, err := got.Count(op.row)
		re, ok := ref.Touch(op.row)
		var rerr error
		if !ok {
			if rerr = ref.Insert(op.row); rerr == nil {
				re, _ = ref.Lookup(op.row)
			}
		}
		if e != re || spilled != (ref.Ops().Spills > spills) || (err == nil) != (rerr == nil) {
			t.Fatalf("step %d: %s = %+v,%v,%v, reference %+v, spills %d -> %d, %v",
				step, what, e, spilled, err, re, spills, ref.Ops().Spills, rerr)
		}
	case opRemove:
		what = fmt.Sprintf("Remove(%d)", op.row)
		got.Remove(op.row)
		ref.Remove(op.row)
	case opPrune:
		what = fmt.Sprintf("Prune(%d)", op.thPI)
		if n, rn := got.Prune(op.thPI), ref.Prune(op.thPI); n != rn {
			t.Fatalf("step %d: %s = %d, reference %d", step, what, n, rn)
		}
	case opLookup:
		what = fmt.Sprintf("Lookup(%d)", op.row)
		e, ok := got.Lookup(op.row)
		re, rok := ref.Lookup(op.row)
		if ok != rok || e != re {
			t.Fatalf("step %d: %s = %+v,%v, reference %+v,%v", step, what, e, ok, re, rok)
		}
	}
	if got.Len() != ref.Len() {
		t.Fatalf("step %d: after %s Len = %d, reference %d", step, what, got.Len(), ref.Len())
	}
	if s, rs := got.Snapshot(), ref.Snapshot(); !entriesEqual(s, rs) {
		t.Fatalf("step %d: after %s Snapshot\n got %+v\n ref %+v", step, what, s, rs)
	}
	if got.Ops() != ref.Ops() {
		t.Fatalf("step %d: after %s Ops\n got %+v\n ref %+v", step, what, got.Ops(), ref.Ops())
	}
}

// TestPADifferentialVsSetScanReference drives paTable and the set-scanning
// reference through the same random Count/Remove/Lookup/Prune stream and,
// after every operation, compares each return value, Len, the Snapshot in
// order, and the whole OpStats. The row domains overflow preferred sets,
// so entries borrow constantly; in the "set0" domain every row prefers set
// 0, so one preferred set borrows from all the others.
func TestPADifferentialVsSetScanReference(t *testing.T) {
	for _, c := range []struct {
		name       string
		cap, ways  int
		set0       bool
		domainMult int // rows drawn from [0, domainMult×cap) (set0: that many multiples of the set count)
	}{
		{"ways4", 32, 4, false, 3},
		{"ways8", 48, 8, false, 3},
		{"ways8-two-words", 96, 8, false, 3},
		{"ways4-set0", 32, 4, true, 2},
		{"ways8-set0", 96, 8, true, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runPADifferential(t, c.cap, c.ways, c.set0, c.domainMult, seed)
				if t.Failed() {
					return
				}
			}
		})
	}
}

func runPADifferential(t *testing.T, capacity, ways int, set0 bool, domainMult int, seed int64) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("seed %d", seed) // checkPAOp's messages name the step only
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	got, ref := newPATable(capacity, ways), newPARef(capacity, ways)
	sets := got.Sets()
	row := func() int {
		if set0 {
			return rng.Intn(domainMult*capacity) * sets
		}
		return rng.Intn(domainMult * capacity)
	}
	var spilled, borrowedHit, full bool
	for step := 0; step < 6000; step++ {
		op := tableOp{row: row()}
		// About one prune per 2×capacity operations, so the table fills
		// between prunes.
		switch r := rng.Intn(200 * capacity); {
		case r < 100:
			op.kind, op.thPI = opPrune, 1+rng.Intn(4)
		case r%100 < 70: // an ACT
			op.kind = opCount
			if i, _ := got.locate(op.row, false); i >= 0 && i/ways != got.preferred(op.row) {
				borrowedHit = true
			}
		case r%100 < 85:
			op.kind = opRemove
		default:
			op.kind = opLookup
		}
		checkPAOp(t, step, got, ref, op)
		spilled = spilled || got.Ops().Spills > 0
		full = full || got.Len() == got.Cap()
	}
	if pruned := got.Ops().EntriesPruned > 0; !spilled || !borrowedHit || !full || !pruned {
		t.Errorf("seed %d: stream missed a case: borrowed a slot %v, hit a borrowed entry %v, ran full %v, pruned %v",
			seed, spilled, borrowedHit, full, pruned)
	}
}
