package core

import (
	"math/rand"
	"sort"
	"testing"
)

// refModel is the reference counting model the differential test pits each
// organization against: a plain builtin map applying the TWiCe rules
// literally. A table refuses a Count the model would accept when it is full
// (or, separated, when a graduating row finds its wide sub-table full), so
// the model mirrors the table's refusals and only the accepted state is
// compared.
type refModel map[int]Entry

func (m refModel) touch(row int) (Entry, bool) {
	e, ok := m[row]
	if !ok {
		return Entry{}, false
	}
	e.ActCnt++
	m[row] = e
	return e, true
}

func (m refModel) prune(thPI int) int {
	pruned := 0
	rows := make([]int, 0, len(m))
	for r := range m {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	for _, r := range rows {
		e := m[r]
		if e.ActCnt < thPI*e.Life {
			delete(m, r)
			pruned++
		} else {
			e.Life++
			m[r] = e
		}
	}
	return pruned
}

func sortedSnapshot(tb Table) []Entry {
	s := tb.Snapshot()
	sort.Slice(s, func(i, j int) bool { return s[i].Row < s[j].Row })
	return s
}

func (m refModel) sorted() []Entry {
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tableFactories builds each organization against the same stream, all of
// 48 slots and sized below the row domain, so the stream regularly runs
// them full. A row that graduates into the separated table's full wide
// sub-table is dropped like a fresh row that finds no slot, and its narrow
// sub-table is small enough that the spill path runs constantly.
func tableFactories() map[string]func() Table {
	return map[string]func() Table{
		"fa":  func() Table { return newPATable(48, 48) },
		"pa":  func() Table { return newPATable(48, 8) },
		"sep": func() Table { return newSepTable(16, 32, 4) },
	}
}

// Table operations of a differential stream.
const (
	opCount = iota
	opRemove
	opPrune
	opLookup
	opSnapshot
)

type tableOp struct {
	kind int
	row  int // opCount, opRemove, opLookup
	thPI int // opPrune
}

// checkOp applies op to tb and to the reference model and fails t at the
// first observable difference: Count's entry, spill flag and error, Prune's
// count, Lookup's answer, the Snapshot and, after every op, Len. The model
// mirrors a Count the table refuses, and only a full table may refuse a
// fresh row.
func checkOp(t testing.TB, step int, tb Table, ref refModel, op tableOp) {
	t.Helper()
	switch op.kind {
	case opCount:
		spills := tb.Ops().Spills
		e, spilled, err := tb.Count(op.row)
		re, tracked := ref.touch(op.row)
		if !tracked {
			re = Entry{Row: op.row, ActCnt: 1, Life: 1}
			ref[op.row] = re
		}
		switch sep, isSep := tb.(*sepTable); {
		case err != nil:
			// The separated table also drops a graduating row when its
			// wide sub-table is full.
			if tracked && !(isSep && re.ActCnt == sep.graduate) || !tracked && tb.Len() != tb.Cap() {
				t.Fatalf("step %d: Count(%d) = %v with %d of %d slots used (tracked %v)", step, op.row, err, tb.Len(), tb.Cap(), tracked)
			}
			delete(ref, op.row)
		case e != re:
			t.Fatalf("step %d: Count(%d) = %+v, reference %+v", step, op.row, e, re)
		case spilled != (tb.Ops().Spills > spills) || spilled && tracked:
			t.Fatalf("step %d: Count(%d) spilled = %v, Spills %d -> %d, tracked %v", step, op.row, spilled, spills, tb.Ops().Spills, tracked)
		}
	case opRemove:
		tb.Remove(op.row)
		delete(ref, op.row)
	case opPrune:
		if got, want := tb.Prune(op.thPI), ref.prune(op.thPI); got != want {
			t.Fatalf("step %d: Prune(%d) = %d, reference %d", step, op.thPI, got, want)
		}
	case opLookup:
		e, ok := lookup(tb, op.row)
		re, rok := ref[op.row]
		if ok != rok || (ok && e != re) {
			t.Fatalf("step %d: Lookup(%d) = %+v,%v, reference %+v,%v", step, op.row, e, ok, re, rok)
		}
	case opSnapshot:
		if got, want := sortedSnapshot(tb), ref.sorted(); !entriesEqual(got, want) {
			t.Fatalf("step %d: snapshot diverged\n table %+v\n ref   %+v", step, got, want)
		}
	}
	if tb.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, reference %d", step, tb.Len(), len(ref))
	}
}

// TestTableDifferentialVsMapReference drives every organization through a
// long randomized ACT/prune/remove stream — including stretches that hold
// the table near full — and checks each observable against the map-based
// reference model, step by step: any organization whose bookkeeping
// diverges from a builtin map surfaces here as a counting difference.
func TestTableDifferentialVsMapReference(t *testing.T) {
	names := []string{"fa", "pa", "sep"}
	for _, name := range names {
		factory := tableFactories()[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(97))
			tb := factory()
			ref := refModel{}
			const domain = 96 // < 2×cap so collisions and full tables are common
			for step := 0; step < 60000; step++ {
				op := tableOp{row: rng.Intn(domain)}
				switch r := rng.Intn(100); {
				case r < 65: // an ACT
					op.kind = opCount
				case r < 75:
					op.kind = opRemove
				case r < 85:
					op.kind = opLookup
				case r < 92:
					op.kind, op.thPI = opPrune, 1+rng.Intn(4)
				default:
					op.kind = opSnapshot
				}
				checkOp(t, step, tb, ref, op)
			}

			// Clear must return the table to fresh-equivalent state: same
			// emptiness, zeroed ops, and the same slot-assignment sequence as
			// a newly built table (checked via a deterministic refill).
			tb.Clear()
			if tb.Len() != 0 {
				t.Fatalf("Len after Clear = %d", tb.Len())
			}
			if tb.Ops() != (OpStats{}) {
				t.Fatalf("Ops after Clear = %+v, want zero", tb.Ops())
			}
			fresh := factory()
			for i := 0; i < 24; i++ {
				if _, _, err := tb.Count(i * 7); err != nil {
					t.Fatal(err)
				}
				if _, _, err := fresh.Count(i * 7); err != nil {
					t.Fatal(err)
				}
			}
			tb.Prune(2)
			fresh.Prune(2)
			if got, want := sortedSnapshot(tb), sortedSnapshot(fresh); !entriesEqual(got, want) {
				t.Fatalf("cleared table diverges from fresh\n cleared %+v\n fresh   %+v", got, want)
			}
			if tb.Ops() != fresh.Ops() {
				t.Fatalf("cleared table ops %+v, fresh %+v", tb.Ops(), fresh.Ops())
			}
		})
	}
}

// TestResetReusesTablesAndDropsOps pins the TWiCe.Reset contract after the
// Clear-based rewrite: table storage is reused (same Table values before and
// after), Ops counters do not survive, and Detections do.
func TestResetReusesTablesAndDropsOps(t *testing.T) {
	for _, org := range []Org{FA, PA, Separated} {
		tw, err := New(testConfig(org))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			tw.OnActivate(bank0(), i%8, 0)
		}
		if tw.Ops().Searches == 0 {
			t.Fatal("stream produced no searches")
		}
		det := tw.Detections()
		before := tw.TableFor(bank0())
		tw.Reset()
		if after := tw.TableFor(bank0()); after != before {
			t.Errorf("%v: Reset reallocated the table", org)
		}
		if tw.TableFor(bank0()).Len() != 0 {
			t.Errorf("%v: Reset left %d entries", org, tw.TableFor(bank0()).Len())
		}
		if ops := tw.Ops(); ops != (OpStats{}) {
			t.Errorf("%v: Ops survived Reset: %+v", org, ops)
		}
		if tw.Detections() != det {
			t.Errorf("%v: Detections changed across Reset: %d -> %d", org, det, tw.Detections())
		}
	}
}

// FuzzTableOps decodes its input into a stream of Count, Remove and Prune
// ops over rows [0, 96) and runs it through every organization against the
// map reference model, and through the pa table against the set-scanning
// reference, OpStats included. Each op is two bytes: the first picks Prune
// (0 mod 8), Remove (1) or Count (2–7), the second the row, or a Prune's
// thPI (1–4).
func FuzzTableOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]tableOp, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			op := tableOp{kind: opCount, row: int(data[i+1]) % 96}
			switch data[i] % 8 {
			case 0:
				op = tableOp{kind: opPrune, thPI: 1 + int(data[i+1])%4}
			case 1:
				op.kind = opRemove
			}
			ops = append(ops, op)
		}
		for _, name := range []string{"fa", "pa", "sep"} {
			t.Logf("%s against the map reference", name)
			tb, ref := tableFactories()[name](), refModel{}
			for i, op := range ops {
				checkOp(t, i, tb, ref, op)
			}
			checkOp(t, len(ops), tb, ref, tableOp{kind: opSnapshot})
		}
		t.Log("pa against the set-scanning reference")
		got, ref := newPATable(48, 8), newPARef(48, 8)
		for i, op := range ops {
			checkPAOp(t, i, got, ref, op)
		}
	})
}
