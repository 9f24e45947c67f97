package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clock"
)

// benchParams returns the full-size DDR4 geometry used by the perf-sensitive
// benchmarks, so the numbers reflect the real 131K-row banks of the paper's
// configuration rather than the tiny unit-test geometry.
func benchParams() Params {
	p := DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 1
	p.BanksPerRank = 1
	p.BankGroups = 1
	return p
}

func BenchmarkBankActivate(b *testing.B) {
	p := benchParams()
	bank := NewBank(BankID{0, 0, 0}, &p, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := (i * 7919) % p.RowsPerBank
		if err := bank.Activate(row, clock.Time(i)); err != nil {
			b.Fatal(err)
		}
		bank.Precharge()
	}
}

// quickBankParams is benchParams at the quick scale's 1 ms refresh window
// (experiments.QuickScale, which the repository benchmark runs): 128 ticks a
// window, so each auto-refresh covers 1,032 rows.
func quickBankParams() Params {
	p := benchParams()
	p.TREFW = clock.Millisecond
	return p
}

// hotRows are single-row aggressors like the paper's S3 attack, spread over
// the bank.
var hotRows = []int{5000, 40000, 80000, 120000}

// activateRows activates and precharges each row once.
func activateRows(tb testing.TB, bank *Bank, rows []int) {
	for _, row := range rows {
		if err := bank.Activate(row, 0); err != nil {
			tb.Fatal(err)
		}
		bank.Precharge()
	}
}

// dirtyEveryRow activates every logical row in ascending order, which leaves
// a non-zero disturbance count on every physical row but the unreached
// spares.
func dirtyEveryRow(tb testing.TB, bank *Bank, p Params) {
	for row := 0; row < p.RowsPerBank; row++ {
		if err := bank.Activate(row, 0); err != nil {
			tb.Fatal(err)
		}
		bank.Precharge()
	}
}

// BenchmarkBankAutoRefresh times one auto-refresh of a quick-scale bank in
// three states: never hammered (clean), a few S3-like aggressors hammered
// before each refresh (hot; their ACTs are timed too), and every row of the
// range disturbed (dense, the worst case: the bank is re-disturbed, untimed,
// once per refresh window).
func BenchmarkBankAutoRefresh(b *testing.B) {
	p := quickBankParams()
	ticks := p.RefreshTicksPerWindow()
	b.Run("clean", func(b *testing.B) {
		bank := NewBank(BankID{0, 0, 0}, &p, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bank.AutoRefresh(clock.Time(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hot", func(b *testing.B) {
		bank := NewBank(BankID{0, 0, 0}, &p, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			activateRows(b, bank, hotRows)
			if err := bank.AutoRefresh(clock.Time(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		bank := NewBank(BankID{0, 0, 0}, &p, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%ticks == 0 {
				b.StopTimer()
				dirtyEveryRow(b, bank, p)
				b.StartTimer()
			}
			if err := bank.AutoRefresh(clock.Time(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// remapTableWithN builds a table with n remapped rows spread across the bank.
func remapTableWithN(p Params, n int) *RemapTable {
	t := NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	stride := p.RowsPerBank / (n + 1)
	for i := 0; i < n; i++ {
		if err := t.Remap((i + 1) * stride); err != nil {
			panic(err)
		}
	}
	return t
}

func BenchmarkRemapPhysicalIdentity(b *testing.B) {
	p := benchParams()
	t := NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += t.Physical((i * 7919) % p.RowsPerBank)
	}
	_ = sink
}

func BenchmarkRemapPhysical100Remapped(b *testing.B) {
	p := benchParams()
	t := remapTableWithN(p, 100)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += t.Physical((i * 7919) % p.RowsPerBank)
	}
	_ = sink
}

func BenchmarkRemapLogical100Remapped(b *testing.B) {
	p := benchParams()
	t := remapTableWithN(p, 100)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += t.Logical((i * 7919) % t.PhysicalRows())
	}
	_ = sink
}

// TestActivateSteadyStateZeroAllocs pins the tentpole win of this layer: once
// a bank is warm, the ACT → hammer → flip-check path must not touch the heap.
// A flip record append still may (and must) allocate, so the threshold is set
// high enough that no flips occur during the measured runs. Warm means the
// groups the measured rows disturb are stored: one pass over the same rows
// stores them first. One run of 1,000 activations, so that a single
// allocation shows: AllocsPerRun rounds down to whole allocations per run.
func TestActivateSteadyStateZeroAllocs(t *testing.T) {
	p := benchParams()
	bank := NewBank(BankID{0, 0, 0}, &p, remapTableWithN(p, 100))
	row := 0
	for i := 0; i <= 1000; i++ {
		activateRows(t, bank, []int{row})
		row = (row + 7919) % p.RowsPerBank
	}
	allocs := testing.AllocsPerRun(1, func() {
		row := 0
		for range 1000 {
			if err := bank.Activate(row, 0); err != nil {
				t.Fatal(err)
			}
			bank.Precharge()
			row = (row + 7919) % p.RowsPerBank
		}
	})
	if allocs != 0 {
		t.Fatalf("1,000 Bank.Activate calls allocate %v times, want 0", allocs)
	}
}

// TestAutoRefreshSteadyStateZeroAllocs pins the refresh sweep at zero
// allocations on a clean bank and on a disturbed one, where it has dirty
// rows to clear on every tick: one run of 100 ticks each, so that a single
// allocation shows.
func TestAutoRefreshSteadyStateZeroAllocs(t *testing.T) {
	p := quickBankParams()
	clean := NewBank(BankID{0, 0, 0}, &p, nil)
	dirty := NewBank(BankID{0, 0, 0}, &p, nil)
	dirtyEveryRow(t, dirty, p)
	for _, tc := range []struct {
		name string
		bank *Bank
		hot  []int
	}{
		{"clean", clean, nil},
		{"dirty", dirty, hotRows},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for range 100 {
				activateRows(t, tc.bank, tc.hot)
				if err := tc.bank.AutoRefresh(0); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("100 Bank.AutoRefresh ticks on a %s bank allocate %v times, want 0", tc.name, allocs)
		}
	}
}

// TestSlabNeverExceedsDense activates every logical row of a full-size bank
// whose 1,024 spares all hold remapped rows, so every 64-row group is
// disturbed, and then runs a window of auto-refreshes, a reset and a second
// pass: the count slab's length and capacity must never exceed the dense
// array it replaces, one count per physical row.
func TestSlabNeverExceedsDense(t *testing.T) {
	p := benchParams()
	remap := remapTableWithN(p, p.SpareRowsPerBank)
	bank := NewBank(BankID{0, 0, 0}, &p, remap)
	dense := remap.PhysicalRows()
	if dense%64 != 0 {
		t.Fatalf("%d physical rows; the geometry should fill its last group", dense)
	}
	check := func(when string, args ...any) {
		t.Helper()
		if n, c := bank.Slab(); n > dense || c > dense {
			t.Fatalf(when+": slab length %d, capacity %d, above the dense %d", append(args, n, c, dense)...)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for row := 0; row < p.RowsPerBank; row++ {
			activateRows(t, bank, []int{row})
			check("pass %d, row %d", pass, row)
		}
		if n, _ := bank.Slab(); n != dense {
			t.Fatalf("pass %d: slab length %d after disturbing every group, want %d", pass, n, dense)
		}
		for tick := 0; tick < p.RefreshTicksPerWindow(); tick++ {
			if err := bank.AutoRefresh(0); err != nil {
				t.Fatal(err)
			}
		}
		check("pass %d, refresh window", pass)
		bank.Reset()
		check("pass %d, reset", pass)
	}
}

// TestRecycledBankZeroAllocs pins the machine-reuse path at zero
// allocations: once a pass over a row set has stored the groups it
// disturbs, every later pass (activations, adjacent-row refreshes, an
// auto-refresh and a reset over the same rows) allocates nothing, because a
// reset keeps the groups' slots. The rows include a remapped one, whose
// physical home is a spare, and a pair straddling a group boundary.
func TestRecycledBankZeroAllocs(t *testing.T) {
	p := quickBankParams()
	remap := remapTableWithN(p, 100)
	bank := NewBank(BankID{0, 0, 0}, &p, remap)
	rows := append([]int{63, 64, remap.Remapped()[0]}, hotRows...)
	pass := func() {
		activateRows(t, bank, rows)
		for _, row := range rows {
			if _, err := bank.AdjacentRowRefresh(row, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := bank.AutoRefresh(0); err != nil {
			t.Fatal(err)
		}
		bank.Reset()
	}
	pass()
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Fatalf("a recycled bank allocates %v per pass, want 0", allocs)
	}
}

// BenchmarkNewDevice builds the default 64-bank DDR4_2400 device with seeded
// remap tables (1,024 remapped rows a bank at the default fault rate), the
// device share of a machine's construction.
func BenchmarkNewDevice(b *testing.B) {
	p := DDR4_2400()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDevice(p, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBankResetMatchesFresh drives a reset bank and a fresh bank (sharing the
// same remap layout) through an identical command stream and requires
// identical observable state — the contract the machine-reuse path relies on.
func TestBankResetMatchesFresh(t *testing.T) {
	p := smallParams()
	p.NTh = 3
	remap := NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	for _, r := range []int{12, 3, 40} {
		if err := remap.Remap(r); err != nil {
			t.Fatal(err)
		}
	}

	drive := func(b *Bank) {
		for i := 0; i < 200; i++ {
			if err := b.Activate((i*13)%p.RowsPerBank, clock.Time(i)); err != nil {
				t.Fatal(err)
			}
			b.Precharge()
			if i%37 == 0 {
				if err := b.AutoRefresh(clock.Time(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	used := NewBank(BankID{0, 0, 0}, &p, remap)
	drive(used)
	if used.Stats().Flips == 0 {
		t.Fatal("test stream should produce flips (NTh is small)")
	}
	used.Reset()

	fresh := NewBank(BankID{0, 0, 0}, &p, remap)

	if used.OpenRow() != fresh.OpenRow() {
		t.Fatalf("open row after reset: %d vs fresh %d", used.OpenRow(), fresh.OpenRow())
	}
	if used.Stats() != fresh.Stats() {
		t.Fatalf("stats after reset: %+v vs fresh %+v", used.Stats(), fresh.Stats())
	}
	if len(used.Flips()) != 0 {
		t.Fatalf("flips after reset: %d, want 0", len(used.Flips()))
	}

	drive(used)
	drive(fresh)
	if !reflect.DeepEqual(used.Flips(), fresh.Flips()) {
		t.Fatalf("flips diverge after reset:\n reset %+v\n fresh %+v", used.Flips(), fresh.Flips())
	}
	if used.Stats() != fresh.Stats() {
		t.Fatalf("stats diverge after reset: %+v vs %+v", used.Stats(), fresh.Stats())
	}
	for r := 0; r < remap.PhysicalRows(); r++ {
		if used.Disturbance(r) != fresh.Disturbance(r) {
			t.Fatalf("disturbance[%d] = %d vs fresh %d", r, used.Disturbance(r), fresh.Disturbance(r))
		}
	}

	// One activation leaves its neighbours at count 1: the lowest high-water
	// mark whose reset must still clear them.
	once := NewBank(BankID{0, 0, 0}, &p, remap)
	if err := once.Activate(20, 0); err != nil {
		t.Fatal(err)
	}
	once.Precharge()
	once.Reset()
	for r := 0; r < remap.PhysicalRows(); r++ {
		if once.Disturbance(r) != 0 {
			t.Fatalf("after one activation and a reset, disturbance[%d] = %d, want 0", r, once.Disturbance(r))
		}
	}
}

func TestDeviceResetResetsAllBanks(t *testing.T) {
	p := smallParams()
	d, err := NewDevice(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range d.Banks() {
		if err := b.Activate(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	d.Reset()
	for _, b := range d.Banks() {
		if b.OpenRow() != -1 {
			t.Fatalf("bank %v still open after device reset", b.ID())
		}
		if b.Stats() != (BankStats{}) {
			t.Fatalf("bank %v stats not cleared: %+v", b.ID(), b.Stats())
		}
	}
	if d.TotalFlips() != 0 {
		t.Fatalf("flips after reset: %d", d.TotalFlips())
	}
}
