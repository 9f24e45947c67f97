package core

import (
	"math/rand"
	"sort"
	"testing"
)

// refModel is the reference counting model the differential test pits each
// organization against: a plain builtin map applying the TWiCe rules
// literally. Organizations may reject an Insert the model would accept (the
// separated table's sub-table split), so the model mirrors the table's
// accept/reject decisions and only the accepted state is compared.
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

// tableFactories builds each organization against the same stream. fa and pa
// are sized below the row domain so the stream regularly runs them full; the
// separated table's wide sub-table must instead cover the whole domain,
// because graduation into a full wide sub-table is a sizing-theorem violation
// that (correctly) panics — its narrow sub-table still stays small enough
// that the spill path is exercised constantly.
func tableFactories() map[string]func() Table {
	return map[string]func() Table{
		"fa":  func() Table { return newPATable(48, 48) },
		"pa":  func() Table { return newPATable(48, 8) },
		"sep": func() Table { return newSepTable(16, 96, 4) },
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
				row := rng.Intn(domain)
				switch op := rng.Intn(100); {
				case op < 65: // an ACT: touch, insert on miss (TWiCe's usage)
					e, ok := tb.Touch(row)
					re, rok := ref.touch(row)
					if ok != rok {
						t.Fatalf("step %d: Touch(%d) hit=%v, reference %v", step, row, ok, rok)
					}
					if ok && e != re {
						t.Fatalf("step %d: Touch(%d) = %+v, reference %+v", step, row, e, re)
					}
					if !ok {
						if err := tb.Insert(row); err == nil {
							ref[row] = Entry{Row: row, ActCnt: 1, Life: 1}
						} else if tb.Len() == 0 {
							t.Fatalf("step %d: empty table rejected Insert(%d): %v", step, row, err)
						}
					}
				case op < 75:
					tb.Remove(row)
					delete(ref, row)
				case op < 85:
					e, ok := tb.Lookup(row)
					re, rok := ref[row]
					if ok != rok || (ok && e != re) {
						t.Fatalf("step %d: Lookup(%d) = %+v,%v, reference %+v,%v", step, row, e, ok, re, rok)
					}
				case op < 92:
					thPI := 1 + rng.Intn(4)
					got := tb.Prune(thPI)
					want := ref.prune(thPI)
					if got != want {
						t.Fatalf("step %d: Prune(%d) = %d, reference %d", step, thPI, got, want)
					}
				default:
					if got, want := sortedSnapshot(tb), ref.sorted(); !entriesEqual(got, want) {
						t.Fatalf("step %d: snapshot diverged\n table %+v\n ref   %+v", step, got, want)
					}
				}
				if tb.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, reference %d", step, tb.Len(), len(ref))
				}
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
				if err := tb.Insert(i * 7); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Insert(i * 7); err != nil {
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
