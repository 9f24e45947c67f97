// Package graphene implements Graphene (Park et al., MICRO 2020), the
// direct successor to TWiCe and the natural "future work" comparison point:
// it replaces TWiCe's prune-based table with a Misra-Gries frequent-elements
// summary. A table of (row, estimated-count) pairs plus a spillover counter
// guarantees that any row activated at least threshold times within a reset
// window is tracked, using a number of counters inversely proportional to
// the threshold — the same deterministic no-false-negative guarantee as
// TWiCe with a different (and reset-based rather than pruning-based) state
// machine.
//
// Included as an extension beyond the paper; the bench harness compares its
// table size and additional-ACT behaviour against TWiCe's.
package graphene

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// Config parameterises a Graphene instance.
type Config struct {
	// Threshold is the estimated-count value at which a row's neighbours
	// are refreshed (TWiCe's thRH for apples-to-apples runs).
	Threshold int
	// Entries is the Misra-Gries table size per bank. The guarantee needs
	// W/Entries < Threshold where W is the max activations per reset
	// window; NewConfig sizes it accordingly.
	Entries int
	// DRAM supplies geometry and refresh pacing (the summary resets every
	// refresh window, like the vulnerability epoch).
	DRAM dram.Params
}

// NewConfig sizes the table for the Misra-Gries guarantee at the given
// threshold: with W = maxact·(tREFW/tREFI) activations per window, any row
// activated ≥ threshold times has estimated count ≥ true count − W/(k+1),
// so k ≥ W/(threshold/2) keeps the detection margin at half the threshold.
func NewConfig(p dram.Params, threshold int) Config {
	w := p.MaxACTsPerRefreshInterval() * p.RefreshTicksPerWindow()
	k := 2*w/threshold + 1
	return Config{Threshold: threshold, Entries: k, DRAM: p}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Threshold < 2:
		return fmt.Errorf("graphene: threshold too small: %d", c.Threshold)
	case c.Entries < 1:
		return fmt.Errorf("graphene: table needs entries, got %d", c.Entries)
	}
	return c.DRAM.Validate()
}

type entry struct {
	row   int
	count int
}

type bankTable struct {
	entries []entry
	index   map[int]int
	spill   int // the Misra-Gries floor (decremented "all counters" value)
	ticks   int
}

// Graphene implements defense.Defense.
type Graphene struct {
	cfg        Config //twicelint:keep configuration, fixed at construction
	banks      []bankTable
	resetEvery int //twicelint:keep derived tREFW quantum, fixed at construction

	detections int64 //twicelint:keep lifetime aggregate; Reset rebuilds the tables only
	swaps      int64 //twicelint:keep lifetime aggregate; Reset rebuilds the tables only
}

var _ defense.Defense = (*Graphene)(nil)

// New builds a Graphene engine.
func New(cfg Config) (*Graphene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Graphene{
		cfg:        cfg,
		banks:      make([]bankTable, cfg.DRAM.TotalBanks()),
		resetEvery: cfg.DRAM.RefreshTicksPerWindow(),
	}
	for i := range g.banks {
		g.banks[i].index = make(map[int]int, cfg.Entries)
	}
	return g, nil
}

// Name implements defense.Defense.
func (g *Graphene) Name() string { return fmt.Sprintf("Graphene-%d", g.cfg.Entries) }

// OnActivate implements defense.Defense: the Misra-Gries update. Tracked
// rows increment; untracked rows either claim a free slot, replace an entry
// at the spillover floor, or raise the floor.
func (g *Graphene) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	b := &g.banks[bank.Flat(&g.cfg.DRAM)]
	if i, ok := b.index[row]; ok {
		b.entries[i].count++
		if b.entries[i].count >= g.cfg.Threshold {
			// Reset the estimate to the floor: the row restarts its climb
			// after its neighbours are refreshed.
			b.entries[i].count = b.spill
			g.detections++
			return defense.Action{ARRAggressors: []int{row}, Detected: true}
		}
		return defense.Action{}
	}
	if len(b.entries) < g.cfg.Entries {
		b.index[row] = len(b.entries)
		b.entries = append(b.entries, entry{row: row, count: b.spill + 1})
		return defense.Action{}
	}
	// Replace an entry sitting at the floor, if any; otherwise raise the
	// floor (the classic "decrement all" step, done lazily via spill).
	for i := range b.entries {
		if b.entries[i].count == b.spill {
			delete(b.index, b.entries[i].row)
			b.entries[i] = entry{row: row, count: b.spill + 1}
			b.index[row] = i
			g.swaps++
			return defense.Action{}
		}
	}
	b.spill++
	return defense.Action{}
}

// OnRefreshTick implements defense.Defense: the summary resets every refresh
// window (aligned with the vulnerability epoch, like the paper's CBT).
func (g *Graphene) OnRefreshTick(bank dram.BankID, _ clock.Time) {
	b := &g.banks[bank.Flat(&g.cfg.DRAM)]
	b.ticks++
	if b.ticks >= g.resetEvery {
		b.ticks = 0
		b.entries = b.entries[:0]
		b.index = make(map[int]int, g.cfg.Entries)
		b.spill = 0
	}
}

// Reset implements defense.Defense.
func (g *Graphene) Reset() {
	for i := range g.banks {
		g.banks[i] = bankTable{index: make(map[int]int, g.cfg.Entries)}
	}
}
