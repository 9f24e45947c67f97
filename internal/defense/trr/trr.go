// Package trr models the in-DRAM Target Row Refresh mechanism that DDR4 and
// LPDDR4 devices ship (§8 of the TWiCe paper): a small set of sampling
// counters per bank tracks recently activated rows; when a tracked row's
// count passes the MAC (maximum activation count) threshold, the device
// refreshes its neighbours during the next refresh opportunity.
//
// TRR is included as the "what DRAM already does" baseline and as a foil:
// because its tracker holds only a handful of entries with use-based
// eviction, an attacker hammering more rows than the tracker holds (the
// TRRespass many-sided pattern, reproduced by workload.ManySided) evicts its
// own aggressors and bypasses the mitigation — which the tests demonstrate,
// and which TWiCe's provably sized table is immune to.
package trr

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// Config parameterises the TRR model.
type Config struct {
	// TrackerEntries is the per-bank sampler size (real devices: 1-16).
	TrackerEntries int
	// MAC is the activation count at which a tracked row's neighbours are
	// refreshed.
	MAC int
	// DRAM supplies geometry.
	DRAM dram.Params
}

// NewConfig returns a representative in-DRAM TRR: 4 tracker entries and a
// MAC of half the row-hammer threshold.
func NewConfig(p dram.Params) Config {
	return Config{TrackerEntries: 4, MAC: p.NTh / 4, DRAM: p}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.TrackerEntries < 1:
		return fmt.Errorf("trr: tracker needs entries, got %d", c.TrackerEntries)
	case c.MAC < 2:
		return fmt.Errorf("trr: MAC too small: %d", c.MAC)
	}
	return c.DRAM.Validate()
}

type entry struct {
	row   int
	count int
	last  int64
}

// TRR implements defense.Defense. One tick clock serves every bank: it feeds
// only the within-bank LRU comparison, which depends on the relative
// activation order inside a bank, never on the clock's absolute value.
type TRR struct {
	cfg      Config //twicelint:keep configuration, fixed at construction
	trackers [][]entry
	tick     int64 //twicelint:keep lifetime tick clock; trackers reference it only relatively

	refreshes int64 //twicelint:keep lifetime aggregate; Reset drops the trackers only
	evictions int64 //twicelint:keep lifetime aggregate; Reset drops the trackers only
}

var _ defense.Defense = (*TRR)(nil)

// New builds a TRR engine.
func New(cfg Config) (*TRR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TRR{
		cfg:      cfg,
		trackers: make([][]entry, cfg.DRAM.TotalBanks()),
	}, nil
}

// Name implements defense.Defense.
func (t *TRR) Name() string { return fmt.Sprintf("TRR-%d", t.cfg.TrackerEntries) }

// OnActivate implements defense.Defense: track the row; if already tracked,
// bump its count and fire at the MAC; otherwise insert, evicting the
// least-recently-activated entry — the exploitable behaviour.
func (t *TRR) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	i := bank.Flat(&t.cfg.DRAM)
	t.tick++
	tr := t.trackers[i]
	for j := range tr {
		if tr[j].row != row {
			continue
		}
		tr[j].count++
		tr[j].last = t.tick
		if tr[j].count >= t.cfg.MAC {
			tr[j].count = 0
			t.refreshes++
			// The device refreshes the aggressor's neighbours via its own
			// remap-aware internal path: model as an ARR.
			return defense.Action{ARRAggressors: []int{row}, Detected: true}
		}
		return defense.Action{}
	}
	if len(tr) < t.cfg.TrackerEntries {
		t.trackers[i] = append(tr, entry{row: row, count: 1, last: t.tick})
		return defense.Action{}
	}
	oldest := 0
	for j := range tr {
		if tr[j].last < tr[oldest].last {
			oldest = j
		}
	}
	tr[oldest] = entry{row: row, count: 1, last: t.tick}
	t.evictions++
	return defense.Action{}
}

// OnRefreshTick implements defense.Defense. Real TRR decays its counters
// with the refresh cadence; model the full reset once per refresh window.
func (t *TRR) OnRefreshTick(bank dram.BankID, _ clock.Time) {}

// Reset implements defense.Defense.
func (t *TRR) Reset() {
	for i := range t.trackers {
		t.trackers[i] = nil
	}
}
