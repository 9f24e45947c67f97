package dram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

// refBank is the dense reference model of a Bank's reliability state: every
// refresh walks each row of its range, and flips are tracked with an
// explicit per-row mark instead of being read off the count. touched marks
// the 64-row groups whose counts hammer has raised since construction, the
// groups a Bank must store.
type refBank struct {
	p       *Params
	remap   *RemapTable
	disturb []int
	flipped []bool
	touched []bool
	ptr     int
	hwm     int
	flips   []Flip
	stats   BankStats
}

func newRefBank(p *Params, remap *RemapTable) *refBank {
	n := remap.PhysicalRows()
	return &refBank{p: p, remap: remap, disturb: make([]int, n), flipped: make([]bool, n),
		touched: make([]bool, (n+63)/64)}
}

func (r *refBank) hammer(phys int, now clock.Time) {
	r.disturb[phys] = 0
	r.flipped[phys] = false
	for n := phys - r.p.BlastRadius; n <= phys+r.p.BlastRadius; n++ {
		if n == phys || n < 0 || n >= len(r.disturb) {
			continue
		}
		r.disturb[n]++
		r.touched[n>>6] = true
		r.hwm = max(r.hwm, r.disturb[n])
		if r.disturb[n] > r.p.NTh && !r.flipped[n] {
			r.flipped[n] = true
			r.stats.Flips++
			r.flips = append(r.flips, Flip{PhysRow: n, Logical: r.remap.Logical(n), Time: now, Disturb: r.disturb[n]})
		}
	}
}

func (r *refBank) activate(row int, now clock.Time) {
	r.stats.ACTs++
	r.hammer(r.remap.Physical(row), now)
}

func (r *refBank) adjacentRowRefresh(row int, now clock.Time) {
	phys := r.remap.Physical(row)
	for n := phys - r.p.BlastRadius; n <= phys+r.p.BlastRadius; n++ {
		if n != phys && n >= 0 && n < len(r.disturb) {
			r.hammer(n, now)
			r.stats.VictimACTs++
		}
	}
}

func (r *refBank) refreshLogicalNeighbors(row int, now clock.Time) {
	for l := row - r.p.BlastRadius; l <= row+r.p.BlastRadius; l++ {
		if l != row && l >= 0 && l < r.p.RowsPerBank {
			r.hammer(r.remap.Physical(l), now)
			r.stats.VictimACTs++
		}
	}
}

func (r *refBank) autoRefresh() {
	for i := 0; i < r.p.RowsPerRefresh(); i++ {
		r.disturb[r.ptr] = 0
		r.flipped[r.ptr] = false
		r.ptr = (r.ptr + 1) % len(r.disturb)
	}
	r.stats.AutoRefreshes++
	r.stats.RowsRefreshed += int64(r.p.RowsPerRefresh())
}

// reset clears everything but touched: a Bank keeps storing the groups it
// disturbed before a reset.
func (r *refBank) reset() {
	touched := r.touched
	*r = *newRefBank(r.p, r.remap)
	r.touched = touched
}

// TestDisturbanceConservation checks the bookkeeping behind the whole
// reliability model against refBank: after every activation, ARR,
// logical-neighbour refresh, auto-refresh and reset of a random stream, each
// row's disturbance, the recorded flips, the activity counters and the
// high-water mark must match, and the bank must store counts for exactly
// the 64-row groups disturbed since it was built. The streams hammer a few
// hot rows, some of them remapped to spares, at a small NTh, so rows flip,
// are refreshed and flip again. Two geometries: 72 rows refreshed one per tick, and 200 rows
// refreshed 67 per tick, so a tick's range spans several words and wraps
// past the last row mid-tick. Both end in a partial 64-row group.
func TestDisturbanceConservation(t *testing.T) {
	wide := smallParams()
	wide.RowsPerBank, wide.SpareRowsPerBank = 192, 8
	wide.TREFW = 3 * wide.TREFI
	for _, tc := range []struct {
		name         string
		p            Params
		perTick      int
		refreshEvery int // about one auto-refresh per this many ops
	}{
		{"72rows", smallParams(), 1, 4},
		{"200rows", wide, 67, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.NTh = 4
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := p.RowsPerRefresh(); got != tc.perTick {
				t.Fatalf("RowsPerRefresh = %d, want %d", got, tc.perTick)
			}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				remap := NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
				hot := []int{1, 2, p.RowsPerBank / 2, p.RowsPerBank - 1, rng.Intn(p.RowsPerBank)}
				for _, row := range []int{hot[2], hot[4], rng.Intn(p.RowsPerBank)} {
					if remap.Physical(row) == row {
						if err := remap.Remap(row); err != nil {
							t.Fatal(err)
						}
					}
				}
				b := NewBank(BankID{}, &p, remap)
				ref := newRefBank(&p, remap)
				for i := 0; i < 3000; i++ {
					now := clock.Time(i)
					row := rng.Intn(p.RowsPerBank)
					if rng.Intn(2) == 0 {
						row = hot[rng.Intn(len(hot))]
					}
					var op string
					var err error
					switch k := rng.Intn(1000); {
					case k == 0:
						op = "reset"
						b.Reset()
						ref.reset()
					case rng.Intn(tc.refreshEvery) == 0:
						op = "auto-refresh"
						err = b.AutoRefresh(now)
						ref.autoRefresh()
					case k < 100:
						op = "arr"
						_, err = b.AdjacentRowRefresh(row, now)
						ref.adjacentRowRefresh(row, now)
					case k < 150:
						op = "logical-neighbours"
						_, err = b.RefreshLogicalNeighbors(row, now)
						ref.refreshLogicalNeighbors(row, now)
					default:
						op = "activate"
						err = b.Activate(row, now)
						b.Precharge()
						ref.activate(row, now)
					}
					if err != nil {
						t.Fatalf("seed %d op %d %s(%d): %v", seed, i, op, row, err)
					}
					if msg := diffRef(b, ref); msg != "" {
						t.Logf("seed %d op %d %s(%d): %s", seed, i, op, row, msg)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

// diffRef describes the first difference between a bank and its reference
// model, or returns "" when they agree.
func diffRef(b *Bank, ref *refBank) string {
	for r, want := range ref.disturb {
		if got := b.Disturbance(r); got != want {
			return fmt.Sprintf("disturb[%d] = %d, reference %d", r, got, want)
		}
	}
	if len(b.Flips()) != len(ref.flips) {
		return fmt.Sprintf("%d flips, reference %d", len(b.Flips()), len(ref.flips))
	}
	for i, f := range b.Flips() {
		if f != ref.flips[i] {
			return fmt.Sprintf("flip %d = %+v, reference %+v", i, f, ref.flips[i])
		}
	}
	if b.Stats() != ref.stats {
		return fmt.Sprintf("stats %+v, reference %+v", b.Stats(), ref.stats)
	}
	if b.DisturbHighWater() != ref.hwm {
		return fmt.Sprintf("high-water mark %d, reference %d", b.DisturbHighWater(), ref.hwm)
	}
	var touched []int
	for g, ok := range ref.touched {
		if ok {
			touched = append(touched, g)
		}
	}
	if got := b.StoredGroups(); !slices.Equal(got, touched) {
		return fmt.Sprintf("stored groups %v, disturbed %v", got, touched)
	}
	if n, _ := b.Slab(); n != 64*len(touched) {
		return fmt.Sprintf("slab holds %d counts for %d groups", n, len(touched))
	}
	return ""
}

// TestRefreshWindowBoundsDisturbance verifies the premise of §3.2: with the
// rolling auto-refresh running at its rated cadence, no row's disturbance
// can exceed the ACTs its neighbours can physically receive in one window.
func TestRefreshWindowBoundsDisturbance(t *testing.T) {
	p := smallParams()
	p.NTh = 1 << 30
	b := NewBank(BankID{}, &p, nil)
	actsPerTick := p.MaxACTsPerRefreshInterval()
	ticks := 3 * p.RefreshTicksPerWindow()
	hot := 7
	for tick := 0; tick < ticks; tick++ {
		for i := 0; i < actsPerTick; i++ {
			if err := b.Activate(hot, 0); err != nil {
				t.Fatal(err)
			}
			b.Precharge()
		}
		if err := b.AutoRefresh(0); err != nil {
			t.Fatal(err)
		}
	}
	// The victim is refreshed once per window, so its disturbance is capped
	// by one window's worth of neighbour ACTs.
	bound := actsPerTick * p.RefreshTicksPerWindow()
	if got := b.Disturbance(hot + 1); got > bound {
		t.Errorf("victim disturbance = %d, above one-window bound %d", got, bound)
	}
	if got := b.Disturbance(hot + 1); got == 0 {
		t.Error("victim disturbance zero; hammering not registered")
	}
}
