package core

import "testing"

// benchTable is one table shape a benchmark runs: a constructor, not an
// instance, because testing reruns each sub-benchmark body while
// calibrating b.N, and every rerun needs a fresh table.
type benchTable struct {
	name string
	make func() Table
}

// benchTables lists a constructor per organization at the paper's real
// sizing (bound 556 for DDR4-2400), so the numbers reflect production probe
// depths.
func benchTables() []benchTable {
	return []benchTable{
		{"fa", func() Table { return newPATable(556, 556) }},
		{"pa", func() Table { return newPATable(556, 64) }},
		{"sep", func() Table { return newSepTable(124, 432, 4) }},
	}
}

// fillHalf loads the table to roughly half occupancy with well-spread rows
// and enough activations that a prune pass keeps most entries alive.
func fillHalf(b testing.TB, tb Table, thPI int) []int {
	rows := make([]int, 0, tb.Cap()/2)
	for i := 0; i < tb.Cap()/2; i++ {
		row := i * 131
		for j := 0; j < thPI; j++ {
			if _, _, err := tb.Count(row); err != nil {
				b.Fatal(err)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// BenchmarkTableCount times one ACT's table call on a half-full table: hit
// bumps a tracked row, and miss inserts a fresh one. The misses fill the
// table to three quarters before it is refilled to half, untimed, so the
// miss path never finds the table full.
func BenchmarkTableCount(b *testing.B) {
	for _, bt := range benchTables() {
		b.Run(bt.name+"/hit", func(b *testing.B) {
			tb := bt.make()
			rows := fillHalf(b, tb, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Count(rows[i%len(rows)])
			}
		})
		b.Run(bt.name+"/miss", func(b *testing.B) {
			tb := bt.make()
			fillHalf(b, tb, 4)
			n := tb.Cap() / 4
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 && i > 0 {
					b.StopTimer()
					tb.Clear()
					fillHalf(b, tb, 4)
					b.StartTimer()
				}
				if _, _, err := tb.Count(1<<20 + i%n*257); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTablePrune times one prune pass. A pass walks only live entries,
// so its cost depends on occupancy: each organization runs half full, and
// pa-sparse is a quick-scale pa table (bound 386, 64 ways) holding the one
// entry an S3 run leaves in it. thPI 0 frees no entry and only ages each
// one, so every pass sees the same occupancy however large b.N grows.
func BenchmarkTablePrune(b *testing.B) {
	shapes := append(benchTables(), benchTable{"pa-sparse", func() Table {
		tb := newPATable(386, 64)
		if _, _, err := tb.Count(5000); err != nil {
			panic(err)
		}
		return tb
	}})
	for _, bt := range shapes {
		b.Run(bt.name, func(b *testing.B) {
			tb := bt.make()
			if tb.Len() == 0 { // pa-sparse comes with its one entry
				fillHalf(b, tb, 4)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Prune(0)
			}
		})
	}
}

// TestTouchSteadyStateZeroAllocs pins the per-ACT table call, Count, at
// zero allocations once the table is built, for every organization: a miss
// that inserts, hits (the separated table's thPI-th graduates the row) and
// the Remove a detection adds. One run of 1,000 such rounds, so that a
// single allocation shows: AllocsPerRun rounds down to whole allocations per
// run.
func TestTouchSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, bt := range benchTables() {
		t.Run(bt.name, func(t *testing.T) {
			tb := bt.make()
			rows := fillHalf(t, tb, 4)
			allocs := testing.AllocsPerRun(1, func() {
				for i := range 1000 {
					tb.Count(rows[i%len(rows)])
					row := rows[i%len(rows)] + 1
					for j := 0; j < 4; j++ {
						tb.Count(row) // insert, two hits, then sep's graduation
					}
					tb.Remove(row)
				}
			})
			if allocs != 0 {
				t.Fatalf("1,000 Count rounds allocate %v times, want 0", allocs)
			}
		})
	}
}

// TestClearNoAllocs pins Clear, which reuses a table's storage, at zero
// allocations: one run of 100 clears, so that a single allocation shows.
func TestClearNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, bt := range benchTables() {
		t.Run(bt.name, func(t *testing.T) {
			tb := bt.make()
			fillHalf(t, tb, 4)
			allocs := testing.AllocsPerRun(1, func() {
				for range 100 {
					tb.Clear()
				}
			})
			if allocs != 0 {
				t.Fatalf("100 Table.Clear calls allocate %v times, want 0", allocs)
			}
		})
	}
}
