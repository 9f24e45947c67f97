// Package analysis implements the paper's analytical machinery: the §4.1
// bound on simultaneously hammerable rows, the Table 2 parameter
// derivations, the §4.4 counter-table bound, and an independent oracle that
// checks the §4.3 protection theorem over arbitrary activation traces.
package analysis

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dram"
)

// Derived collects every value the paper derives from the DRAM parameters
// (Table 2 plus the §4.4 and §6.2 sizing results).
type Derived struct {
	ThRH          int        // detection threshold
	ThPI          int        // pruning threshold
	MaxLife       int        // pruning intervals per refresh window
	MaxACT        int        // max ACTs per bank per pruning interval
	PruneInterval clock.Time // PI
	TableBound    int        // worst-case simultaneously valid entries
	NarrowEntries int        // §6.2 2-bit sub-table
	WideEntries   int        // §6.2 15-bit sub-table
	MaxAggressors int        // §4.1 bound on rows that can reach Nth per bank
}

// Derive computes every derived parameter for a TWiCe configuration.
func Derive(cfg core.Config) Derived {
	narrow, wide := cfg.SeparatedSizing()
	return Derived{
		ThRH:          cfg.ThRH,
		ThPI:          cfg.ThPI(),
		MaxLife:       cfg.MaxLife(),
		MaxACT:        cfg.MaxACT(),
		PruneInterval: cfg.PruneInterval(),
		TableBound:    cfg.TableBound(),
		NarrowEntries: narrow,
		WideEntries:   wide,
		MaxAggressors: MaxAggressors(cfg.DRAM),
	}
}

// MaxAggressors computes the §4.1 bound: at most
// 2·(tREFW/tRC)/Nth rows per bank can accumulate Nth neighbour activations
// within one refresh window (≈ 20 for the default parameters).
func MaxAggressors(p dram.Params) int {
	actsPerWindow := int64(p.TREFW / p.TRC)
	return int(2 * actsPerWindow / int64(p.NTh))
}

// String renders the derivation like Table 2.
func (d Derived) String() string {
	return fmt.Sprintf("thRH=%d thPI=%d maxact=%d maxlife=%d PI=%v bound=%d (narrow=%d wide=%d) maxAggressors=%d",
		d.ThRH, d.ThPI, d.MaxACT, d.MaxLife, d.PruneInterval,
		d.TableBound, d.NarrowEntries, d.WideEntries, d.MaxAggressors)
}

// Violation reports a breach of the §4.3 theorem observed by the Monitor.
type Violation struct {
	Row   int
	Count int // window ACT count at the moment of the breach
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("analysis: row %d accumulated %d ACTs in one refresh window without detection", v.Row, v.Count)
}

// Monitor is an independent oracle for the §4.3 protection theorem: no row
// may accumulate 2·thRH activations within one refresh window (maxlife
// pruning intervals) without the defense flagging it. It keeps an exact
// per-row sliding window of per-PI activation counts — the brute-force
// bookkeeping TWiCe exists to avoid — so it can referee any defense.
type Monitor struct {
	thRH    int
	maxLife int
	// window[row] is a ring of per-PI counts.
	window map[int][]int
	pos    int
	errs   []Violation
}

// NewMonitor builds an oracle for the given thresholds.
//
//twicelint:keep §4.3 reference oracle, called by internal/analysis tests
func NewMonitor(thRH, maxLife int) *Monitor {
	return &Monitor{
		thRH:    thRH,
		maxLife: maxLife,
		window:  make(map[int][]int),
	}
}

// OnACT records one activation of the row; it reports whether the theorem
// still holds (false exactly once per offending row per window).
//
//twicelint:keep §4.3 reference oracle, called by internal/analysis tests
func (m *Monitor) OnACT(row int) bool {
	w, ok := m.window[row]
	if !ok {
		w = make([]int, m.maxLife)
		m.window[row] = w
	}
	w[m.pos]++
	total := 0
	for _, c := range w {
		total += c
	}
	if total >= 2*m.thRH {
		m.errs = append(m.errs, Violation{Row: row, Count: total})
		// Reset so one breach is reported once, not per subsequent ACT.
		for i := range w {
			w[i] = 0
		}
		return false
	}
	return true
}

// OnDetected records that the defense flagged the row (its victims are
// refreshed), resetting the oracle's window for it.
//
//twicelint:keep §4.3 reference oracle, called by internal/analysis tests
func (m *Monitor) OnDetected(row int) {
	if w, ok := m.window[row]; ok {
		for i := range w {
			w[i] = 0
		}
	}
}

// OnPruneTick advances the sliding window by one pruning interval.
//
//twicelint:keep §4.3 reference oracle, called by internal/analysis tests
func (m *Monitor) OnPruneTick() {
	m.pos = (m.pos + 1) % m.maxLife
	for _, w := range m.window {
		w[m.pos] = 0
	}
}

// Violations returns every observed theorem breach.
//
//twicelint:keep §4.3 reference oracle, called by internal/analysis tests
func (m *Monitor) Violations() []Violation { return m.errs }
