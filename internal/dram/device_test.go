package dram

import (
	"math/rand"
	"testing"

	"repro/internal/clock"
)

// smallParams returns a reduced configuration for fast unit tests.
func smallParams() Params {
	p := DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 1
	p.BanksPerRank = 2
	p.BankGroups = 1
	p.BankGroups = 2
	p.RowsPerBank = 64
	p.SpareRowsPerBank = 8
	p.NTh = 10
	return p
}

func newTestBank(t *testing.T, p Params) *Bank {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewBank(BankID{0, 0, 0}, &p, nil)
}

func TestActivateTracksOpenRow(t *testing.T) {
	b := newTestBank(t, smallParams())
	if b.OpenRow() != -1 {
		t.Fatalf("fresh bank has open row %d", b.OpenRow())
	}
	if err := b.Activate(5, 0); err != nil {
		t.Fatal(err)
	}
	if b.OpenRow() != 5 {
		t.Fatalf("open row = %d, want 5", b.OpenRow())
	}
	if err := b.Activate(6, 0); err == nil {
		t.Fatal("activate with open row must fail")
	}
	b.Precharge()
	if b.OpenRow() != -1 {
		t.Fatal("precharge did not close row")
	}
	if err := b.Activate(6, 0); err != nil {
		t.Fatal(err)
	}
}

func TestActivateRange(t *testing.T) {
	b := newTestBank(t, smallParams())
	if err := b.Activate(-1, 0); err == nil {
		t.Error("negative row accepted")
	}
	if err := b.Activate(64, 0); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestDisturbanceAccumulates(t *testing.T) {
	b := newTestBank(t, smallParams())
	for i := 0; i < 5; i++ {
		if err := b.Activate(10, 0); err != nil {
			t.Fatal(err)
		}
		b.Precharge()
	}
	if got := b.Disturbance(9); got != 5 {
		t.Errorf("disturb(9) = %d, want 5", got)
	}
	if got := b.Disturbance(11); got != 5 {
		t.Errorf("disturb(11) = %d, want 5", got)
	}
	if got := b.Disturbance(10); got != 0 {
		t.Errorf("disturb(10) = %d, want 0 (self-restoring)", got)
	}
}

func TestActivationRestoresOwnRow(t *testing.T) {
	b := newTestBank(t, smallParams())
	// Hammer row 10 so neighbour 11 accumulates disturbance...
	for i := 0; i < 4; i++ {
		_ = b.Activate(10, 0)
		b.Precharge()
	}
	// ...then activating 11 itself restores it.
	_ = b.Activate(11, 0)
	b.Precharge()
	if got := b.Disturbance(11); got != 0 {
		t.Errorf("disturb(11) = %d after own activation, want 0", got)
	}
}

func TestFlipRecordedOnceAboveThreshold(t *testing.T) {
	p := smallParams() // NTh = 10
	b := newTestBank(t, p)
	for i := 0; i < p.NTh+5; i++ {
		if err := b.Activate(20, clock.Time(i)); err != nil {
			t.Fatal(err)
		}
		b.Precharge()
	}
	flips := b.Flips()
	if len(flips) != 2 {
		t.Fatalf("got %d flips, want 2 (rows 19 and 21 once each)", len(flips))
	}
	rows := map[int]bool{flips[0].PhysRow: true, flips[1].PhysRow: true}
	if !rows[19] || !rows[21] {
		t.Errorf("flipped rows = %v, want {19,21}", rows)
	}
	for _, f := range flips {
		if f.Disturb != p.NTh+1 {
			t.Errorf("flip disturbance = %d, want %d", f.Disturb, p.NTh+1)
		}
		if f.Logical != f.PhysRow {
			t.Errorf("identity-mapped flip logical = %d, phys = %d", f.Logical, f.PhysRow)
		}
	}

	// Clearing the victims re-arms them: hammering past NTh again records
	// exactly one more flip per victim, whether an ARR or a refresh sweep
	// did the clearing.
	hammer := func(n int) {
		for i := 0; i < n; i++ {
			if err := b.Activate(20, 0); err != nil {
				t.Fatal(err)
			}
			b.Precharge()
		}
	}
	if _, err := b.AdjacentRowRefresh(20, 0); err != nil {
		t.Fatal(err)
	}
	hammer(p.NTh + 5)
	if got := len(b.Flips()); got != 4 {
		t.Fatalf("after ARR and re-hammer: %d flips, want 4", got)
	}
	for i := 0; i < p.RefreshTicksPerWindow(); i++ {
		if err := b.AutoRefresh(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Disturbance(19) + b.Disturbance(21); got != 0 {
		t.Fatalf("victims not cleared by a full refresh sweep: disturbance sum %d", got)
	}
	hammer(p.NTh + 5)
	if got := len(b.Flips()); got != 6 {
		t.Fatalf("after refresh sweep and re-hammer: %d flips, want 6", got)
	}
	for _, f := range b.Flips()[2:] {
		if f.Disturb != p.NTh+1 || (f.PhysRow != 19 && f.PhysRow != 21) {
			t.Errorf("re-armed flip = %+v, want row 19 or 21 at disturbance %d", f, p.NTh+1)
		}
	}
	// Staying above NTh records nothing more.
	hammer(p.NTh)
	if got := len(b.Flips()); got != 6 {
		t.Fatalf("staying above NTh: %d flips, want still 6", got)
	}
}

func TestNoFlipAtExactlyThreshold(t *testing.T) {
	p := smallParams()
	b := newTestBank(t, p)
	for i := 0; i < p.NTh; i++ {
		_ = b.Activate(20, 0)
		b.Precharge()
	}
	if n := len(b.Flips()); n != 0 {
		t.Errorf("flips at exactly Nth = %d, want 0 (vendor guarantees Nth is safe)", n)
	}
}

func TestAutoRefreshClearsDisturbance(t *testing.T) {
	p := smallParams()
	b := newTestBank(t, p)
	for i := 0; i < 5; i++ {
		_ = b.Activate(1, 0)
		b.Precharge()
	}
	// Rows 0..N refresh in rolling order; enough ticks clear everything.
	ticks := p.RefreshTicksPerWindow()
	rows := p.RowsPerBank + p.SpareRowsPerBank
	per := p.RowsPerRefresh()
	needed := (rows + per - 1) / per
	if needed > ticks {
		t.Fatalf("refresh schedule cannot cover rows: need %d ticks, window has %d", needed, ticks)
	}
	for i := 0; i < needed; i++ {
		if err := b.AutoRefresh(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Disturbance(0); got != 0 {
		t.Errorf("disturb(0) = %d after full refresh sweep", got)
	}
	if got := b.Disturbance(2); got != 0 {
		t.Errorf("disturb(2) = %d after full refresh sweep", got)
	}
}

func TestAutoRefreshRequiresPrecharged(t *testing.T) {
	b := newTestBank(t, smallParams())
	_ = b.Activate(3, 0)
	if err := b.AutoRefresh(0); err == nil {
		t.Error("auto-refresh with open row accepted")
	}
}

func TestARRRefreshesTrueNeighborsUnderRemap(t *testing.T) {
	p := smallParams()
	remap := NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	// Logical row 30 is faulty and remapped to spare physical row 64.
	if err := remap.Remap(30); err != nil {
		t.Fatal(err)
	}
	b := NewBank(BankID{0, 0, 0}, &p, remap)

	// Hammer logical row 30: physical home is 64, so physical 63 and 65 are
	// disturbed — NOT logical rows 29/31 (physical 29/31).
	for i := 0; i < 5; i++ {
		_ = b.Activate(30, 0)
		b.Precharge()
	}
	if got := b.Disturbance(63); got != 5 {
		t.Errorf("disturb(phys 63) = %d, want 5", got)
	}
	if got := b.Disturbance(29); got != 0 {
		t.Errorf("disturb(phys 29) = %d, want 0", got)
	}

	// ARR resolves remapping inside the device: it refreshes 63 and 65.
	n, err := b.AdjacentRowRefresh(30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ARR refreshed %d rows, want 2", n)
	}
	if got := b.Disturbance(63); got != 0 {
		t.Errorf("disturb(phys 63) = %d after ARR, want 0", got)
	}

	// A remapping-oblivious controller refreshing logical neighbours 29/31
	// would have left the true victims hot.
	for i := 0; i < 5; i++ {
		_ = b.Activate(30, 0)
		b.Precharge()
	}
	if _, err := b.RefreshLogicalNeighbors(30, 0); err != nil {
		t.Fatal(err)
	}
	if got := b.Disturbance(63); got != 5 {
		t.Errorf("logical-neighbour refresh cleared true victim: disturb(63) = %d, want 5", got)
	}
}

func TestARRVictimRefreshDisturbsItsOwnNeighbors(t *testing.T) {
	// An ARR internally activates the victim rows, which mildly disturbs the
	// victims' neighbours (including the aggressor's next-nearest rows).
	p := smallParams()
	b := newTestBank(t, p)
	_, err := b.AdjacentRowRefresh(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Victims 9 and 11 were activated: rows 8 and 12 each got one
	// disturbance, and row 10 (the aggressor) got two.
	if got := b.Disturbance(8); got != 1 {
		t.Errorf("disturb(8) = %d, want 1", got)
	}
	if got := b.Disturbance(12); got != 1 {
		t.Errorf("disturb(12) = %d, want 1", got)
	}
	if got := b.Disturbance(10); got != 2 {
		t.Errorf("disturb(10) = %d, want 2", got)
	}
}

func TestARREdgeRows(t *testing.T) {
	p := smallParams()
	b := newTestBank(t, p)
	n, err := b.AdjacentRowRefresh(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("ARR at row 0 refreshed %d rows, want 1", n)
	}
	if _, err := b.AdjacentRowRefresh(p.RowsPerBank, 0); err == nil {
		t.Error("ARR out of range accepted")
	}
}

func TestDeviceConstruction(t *testing.T) {
	p := smallParams()
	d, err := NewDevice(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Banks()) != p.TotalBanks() {
		t.Fatalf("built %d banks, want %d", len(d.Banks()), p.TotalBanks())
	}
	id := BankID{0, 0, 1}
	if d.Bank(id).ID() != id {
		t.Error("bank lookup returned wrong bank")
	}
	bad := p
	bad.Channels = 0
	if _, err := NewDevice(bad, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDeviceStatsAggregation(t *testing.T) {
	p := smallParams()
	d, err := NewDevice(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	b0 := d.Bank(BankID{0, 0, 0})
	b1 := d.Bank(BankID{0, 0, 1})
	for i := 0; i < 3; i++ {
		_ = b0.Activate(1, 0)
		b0.Precharge()
	}
	_ = b1.Activate(2, 0)
	b1.Precharge()
	_, _ = b1.AdjacentRowRefresh(2, 0)
	s := d.TotalStats()
	if s.ACTs != 4 {
		t.Errorf("total ACTs = %d, want 4", s.ACTs)
	}
	if s.VictimACTs != 2 {
		t.Errorf("victim ACTs = %d, want 2", s.VictimACTs)
	}
	if d.TotalFlips() != 0 {
		t.Errorf("flips = %d, want 0", d.TotalFlips())
	}
}

func TestHammerWithBlastRadiusTwo(t *testing.T) {
	p := smallParams()
	p.BlastRadius = 2
	b := newTestBank(t, p)
	_ = b.Activate(10, 0)
	b.Precharge()
	for _, row := range []int{8, 9, 11, 12} {
		if got := b.Disturbance(row); got != 1 {
			t.Errorf("disturb(%d) = %d, want 1 at radius 2", row, got)
		}
	}
	if got := b.Disturbance(7); got != 0 {
		t.Errorf("disturb(7) = %d, want 0", got)
	}
}
