// Package core implements TWiCe — Time Window Counter based row refresh —
// the paper's primary contribution: a counter-based row-hammer defense that
// tracks per-row activation counts in a provably bounded table, prunes
// infrequently activated rows every refresh interval, and requests an
// adjacent-row refresh (ARR) when a row's count reaches the detection
// threshold thRH.
//
// Three physical organizations are provided (fa-TWiCe, pa-TWiCe, and the
// separated table of §6.2); all share identical counting behaviour. One
// table implementation backs them all: fa-TWiCe is a pa table with a single
// set, and the separated table is two of those.
package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/probe"
)

// Org selects the physical table organization.
type Org int

// Table organizations.
const (
	// FA is fa-TWiCe: a fully-associative CAM table (§5, Table 3).
	FA Org = iota
	// PA is pa-TWiCe: a pseudo-associative table with set-borrowing
	// indicators (§6.1); the default, as in the paper's final design.
	PA
	// Separated is pa-less separated-table TWiCe (§6.2): narrow 2-bit
	// entries for fresh rows, wide 15-bit entries for aggressor candidates.
	Separated
)

// String names the organization.
func (o Org) String() string {
	switch o {
	case FA:
		return "fa"
	case PA:
		return "pa"
	case Separated:
		return "sep"
	default:
		return fmt.Sprintf("Org(%d)", int(o))
	}
}

// Config parameterises a TWiCe instance.
type Config struct {
	// DRAM supplies the timing values the thresholds derive from.
	DRAM dram.Params
	// ThRH is the detection threshold: an ACT count at which a row's
	// neighbours are refreshed. The paper derives thRH ≤ Nth/4 for
	// double-sided safety and uses 32768.
	ThRH int
	// Org selects the table organization (NewConfig: PA).
	Org Org
	// Ways is the pa-TWiCe set width (NewConfig: 64).
	Ways int
	// PruneEvery stretches the pruning interval to this many tREFI ticks
	// (NewConfig: 1 = the paper's design; >1 is the ablation knob).
	PruneEvery int
}

// NewConfig returns the paper's configuration for the given DRAM parameters:
// thRH = 32768, pa-TWiCe with 64-way sets, pruning every tREFI.
func NewConfig(p dram.Params) Config {
	return Config{DRAM: p, ThRH: 32768, Org: PA, Ways: 64, PruneEvery: 1}
}

// maxLifeLimit bounds tREFW/PI at 8× Table 2's 8192: TableBound loops once
// per life level, so a huge refresh window would stall construction.
const maxLifeLimit = 1 << 16

// Validate reports whether the configuration yields a sound defense.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	switch {
	case c.ThRH <= 0:
		return fmt.Errorf("core: thRH must be positive, got %d", c.ThRH)
	case c.PruneEvery < 1: // before MaxLife, which divides by the interval
		return fmt.Errorf("core: PruneEvery must be ≥ 1, got %d", c.PruneEvery)
	}
	maxLife := c.MaxLife()
	switch {
	case maxLife <= 0:
		return fmt.Errorf("core: refresh window shorter than pruning interval")
	case maxLife > maxLifeLimit:
		return fmt.Errorf("core: tREFW/PI (%d) exceeds %d", maxLife, maxLifeLimit)
	case c.ThRH < maxLife:
		return fmt.Errorf("core: thRH (%d) below tREFW/PI (%d): thPI would be zero and the table unbounded", c.ThRH, maxLife)
	case c.Org != FA && c.Org != PA && c.Org != Separated:
		return fmt.Errorf("core: unknown table organization %v", c.Org)
	case c.Ways < 1:
		return fmt.Errorf("core: Ways must be positive, got %d", c.Ways)
	case 4*c.ThRH > c.DRAM.NTh:
		return fmt.Errorf("core: thRH (%d) exceeds Nth/4 (%d): double-sided attacks could flip before detection", c.ThRH, c.DRAM.NTh/4)
	}
	return nil
}

// PruneInterval returns the pruning interval PI (tREFI × PruneEvery).
func (c Config) PruneInterval() clock.Time {
	return c.DRAM.TREFI * clock.Time(c.PruneEvery)
}

// MaxLife returns the maximum entry life: tREFW / PI (Table 2: 8192).
func (c Config) MaxLife() int {
	return int(c.DRAM.TREFW / c.PruneInterval())
}

// ThPI returns the pruning threshold thPI = thRH / maxlife (Table 2: 4): the
// minimum average per-PI activation rate a row must sustain to remain an
// aggressor candidate.
func (c Config) ThPI() int {
	return c.ThRH / c.MaxLife()
}

// MaxACT returns maxact, the maximum ACTs a bank can receive per PI
// (Table 2: 165 for PI = tREFI).
func (c Config) MaxACT() int {
	perTick := c.DRAM.MaxACTsPerRefreshInterval()
	return perTick * c.PruneEvery
}

// TableBound computes the §4.4 worst-case number of simultaneously valid
// entries: maxact fresh entries plus, for each life n ≥ 2, the survivors
// bounded by one PI's activation budget spread over counters needing
// (n−1)·thPI ACTs each, with sub-counter leftovers carried to the next life
// level. For the Table 2 parameters (maxact 165) this yields 556 entries,
// which a legal stream reaches exactly. The paper reports 553, which this
// recurrence gives at maxact 164 = ⌊(tREFI − tRFC) / 45.32 ns⌋, with
// tRAS + tRP (32 + 13.32 ns) in place of our 45 ns tRC; that reading is a
// hypothesis (EXPERIMENTS.md, deviation 1). Both round to the same 9×64
// pa-TWiCe geometry and ~2.7 KB table.
func (c Config) TableBound() int {
	return tableBound(c.MaxACT(), c.ThPI(), c.MaxLife())
}

func tableBound(maxact, thPI, maxLife int) int {
	if thPI <= 0 {
		return maxact * maxLife // degenerate: nothing is ever pruned
	}
	total := maxact // entries inserted during the current PI
	leftover := 0
	for n := 2; n <= maxLife; n++ {
		need := (n - 1) * thPI
		budget := maxact + leftover
		total += budget / need
		leftover = budget % need
	}
	return total
}

// SeparatedSizing returns the §6.2 sub-table split for the configuration:
// wide entries (15-bit act_cnt) for PI survivors plus fresh rows that already
// hit thPI, and narrow entries (2-bit act_cnt) for the remaining fresh rows.
func (c Config) SeparatedSizing() (narrow, wide int) {
	bound := c.TableBound()
	maxact := c.MaxACT()
	thPI := c.ThPI()
	if thPI <= 0 {
		return 0, bound
	}
	hotFresh := maxact / thPI          // fresh entries that can reach thPI this PI
	wide = (bound - maxact) + hotFresh // survivors + graduating fresh entries
	narrow = maxact - hotFresh
	return narrow, wide
}

// TWiCe is the defense engine: one counter table per DRAM bank plus the
// threshold logic. It implements defense.Defense.
type TWiCe struct {
	cfg     Config //twicelint:keep engine parameters, fixed at construction
	thPI    int    //twicelint:keep derived pruning-interval threshold, fixed at construction
	tables  []Table
	pending []int // auto-refresh ticks seen per bank since last prune

	// detections deliberately survives Reset: it counts over the engine's
	// lifetime, and the lifetime aggregate is what the detector tests pin.
	//twicelint:keep lifetime aggregate; Reset clears per-run table state only
	detections int64

	// probes, when non-nil, receives table telemetry (prune-tick occupancy,
	// insert spills). The nil check, made only on a spill or a prune, is the
	// whole detached cost.
	//twicelint:keep attachment is machine-owned; Reset must not detach it
	probes *probe.Recorder
}

var _ defense.Defense = (*TWiCe)(nil)

// New builds a TWiCe engine for the configuration.
func New(cfg Config) (*TWiCe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.DRAM.TotalBanks()
	t := &TWiCe{
		cfg:     cfg,
		thPI:    cfg.ThPI(),
		tables:  make([]Table, n),
		pending: make([]int, n),
	}
	bound := cfg.TableBound()
	for i := range t.tables {
		t.tables[i] = newTable(cfg, bound)
	}
	return t, nil
}

func newTable(cfg Config, bound int) Table {
	switch cfg.Org {
	case PA:
		return newPATable(bound, cfg.Ways)
	case Separated:
		narrow, wide := cfg.SeparatedSizing()
		return newSepTable(narrow, wide, cfg.ThPI())
	default:
		return newPATable(bound, bound) // fa: one set of bound ways
	}
}

// Name implements defense.Defense.
func (t *TWiCe) Name() string { return "TWiCe-" + t.cfg.Org.String() }

// SetProbes implements probe.Instrumented: attach (nil detaches) a telemetry
// recorder. Reset leaves the attachment alone — the machine owns it.
func (t *TWiCe) SetProbes(p *probe.Recorder) { t.probes = p }

// Config returns the engine's configuration.
func (t *TWiCe) Config() Config { return t.cfg }

// OnActivate implements defense.Defense: allocate or bump the row's counter;
// when the count reaches thRH, deallocate the entry and request an ARR for
// the row (its physical neighbours are refreshed inside the device).
//
//twicelint:hotpath the per-ACT TWiCe kernel; AllocsPerRun pins it at zero
func (t *TWiCe) OnActivate(bank dram.BankID, row int, now clock.Time) defense.Action {
	i := bank.Flat(&t.cfg.DRAM)
	e, spilled, err := t.tables[i].Count(row)
	switch {
	case err != nil:
		// Under real DRAM pacing (≤ maxact ACTs per tREFI) the sizing
		// theorem makes overflow unreachable. A caller that outruns the
		// physical activation rate can still fill a table (or, in the
		// separated table, the wide sub-table a row graduates into), and
		// the row is then untracked; degrade safely by refreshing its
		// neighbours immediately, which preserves soundness (no unmonitored
		// accumulation) at the cost of a spurious ARR.
		//twicelint:allocok overflow degrade path is unreachable under the §4.4 sizing theorem
		return defense.Action{ARRAggressors: []int{row}}
	case spilled:
		if t.probes != nil {
			t.probes.Spill(i, now)
		}
	case e.ActCnt > 1 && e.ActCnt >= t.cfg.ThRH: // the inserting ACT (ActCnt 1) never detects
		t.tables[i].Remove(row)
		t.detections++
		//twicelint:allocok detection is a rare event; the one-element aggressor list is the API
		return defense.Action{ARRAggressors: []int{row}, Detected: true}
	}
	return defense.Action{}
}

// OnRefreshTick implements defense.Defense: the table update runs in the
// shadow of the bank's auto-refresh (§5.2); with PruneEvery > 1 only every
// k-th tick prunes.
func (t *TWiCe) OnRefreshTick(bank dram.BankID, now clock.Time) {
	i := bank.Flat(&t.cfg.DRAM)
	t.pending[i]++
	if t.pending[i] >= t.cfg.PruneEvery {
		t.pending[i] = 0
		pruned := t.tables[i].Prune(t.thPI)
		if t.probes != nil {
			t.probes.TableTick(i, t.tables[i].Len(), pruned, now)
		}
	}
}

// Reset implements defense.Defense: drop all table state. Tables are cleared
// in place rather than reallocated, so a reset engine reuses its storage;
// Ops() counters do not survive a reset (Clear zeroes them, exactly as the
// old reallocation did), while Detections() intentionally does.
func (t *TWiCe) Reset() {
	for i := range t.tables {
		t.tables[i].Clear()
		t.pending[i] = 0
	}
}

// Detections returns the number of aggressor rows flagged so far.
//
//twicelint:keep called by internal/mc tests
func (t *TWiCe) Detections() int64 { return t.detections }

// TableFor exposes the per-bank table for inspection (tests, reports).
//
//twicelint:keep called by internal/sim tests
func (t *TWiCe) TableFor(bank dram.BankID) Table {
	return t.tables[bank.Flat(&t.cfg.DRAM)]
}

// Ops aggregates table operation counters across all banks.
func (t *TWiCe) Ops() OpStats {
	var s OpStats
	for _, tb := range t.tables {
		o := tb.Ops()
		s.Searches += o.Searches
		s.SetsProbed += o.SetsProbed
		s.PreferredHits += o.PreferredHits
		s.Inserts += o.Inserts
		s.Spills += o.Spills
		s.Removes += o.Removes
		s.Prunes += o.Prunes
		s.EntriesPruned += o.EntriesPruned
		if o.PeakOccupancy > s.PeakOccupancy {
			s.PeakOccupancy = o.PeakOccupancy
		}
	}
	return s
}
