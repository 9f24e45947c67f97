// Package cra implements Counter-based Row Activation (Kim, Nair, Qureshi —
// IEEE CAL 2015): a full counter per DRAM row, stored in a reserved region of
// DRAM itself, with a small counter cache in the memory controller. Counter
// reads and writebacks that miss the cache generate additional DRAM traffic
// — which on low-locality access patterns nearly doubles the activation
// count, the weakness Table 1 of the TWiCe paper records.
package cra

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// Config parameterises a CRA instance.
type Config struct {
	// CacheLines is the number of counter-cache lines in the controller.
	CacheLines int
	// Ways is the counter cache's associativity.
	Ways int
	// CountersPerLine is how many per-row counters share one cache line
	// (64 B line / 2 B counter = 32).
	CountersPerLine int
	// Threshold is the refresh threshold per row.
	Threshold int
	// DRAM supplies geometry.
	DRAM dram.Params
}

// NewConfig returns a representative configuration: a 32 KB, 8-way counter
// cache (512 lines × 32 counters) with the 32K threshold.
func NewConfig(p dram.Params) Config {
	return Config{CacheLines: 512, Ways: 8, CountersPerLine: 32, Threshold: 32768, DRAM: p}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.CacheLines < 1:
		return fmt.Errorf("cra: cache must have lines, got %d", c.CacheLines)
	case c.Ways < 1 || c.CacheLines%c.Ways != 0:
		return fmt.Errorf("cra: ways %d must divide lines %d", c.Ways, c.CacheLines)
	case c.CountersPerLine < 1:
		return fmt.Errorf("cra: counters per line must be positive")
	case c.Threshold < 2:
		return fmt.Errorf("cra: threshold too small: %d", c.Threshold)
	}
	return c.DRAM.Validate()
}

// lineTag identifies one counter-cache line: a bank and a row group.
type lineTag struct {
	bank  int // flat bank index
	group int // row / CountersPerLine
}

// way is one cache way: the tag, the cached counters, and a dirty bit.
type way struct {
	valid  bool
	dirty  bool
	tag    lineTag
	counts []int
	lru    int64
}

// CRA implements defense.Defense.
type CRA struct {
	cfg  Config //twicelint:keep configuration, fixed at construction
	sets [][]way
	tick int64 //twicelint:keep lifetime tick clock; cache ways reference it only relatively

	hits, misses, writebacks int64 //twicelint:keep lifetime aggregates; Reset clears the cache ways only
	detections               int64 //twicelint:keep lifetime aggregate; Reset clears the cache ways only
}

var _ defense.Defense = (*CRA)(nil)

// New builds a CRA engine.
func New(cfg Config) (*CRA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.CacheLines / cfg.Ways
	c := &CRA{cfg: cfg, sets: make([][]way, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]way, cfg.Ways)
	}
	return c, nil
}

// Name implements defense.Defense.
func (c *CRA) Name() string { return "CRA" }

func (c *CRA) setIndex(t lineTag) int {
	// Mix bank and group so banks do not collide on the same sets.
	h := uint64(t.group)*0x9e3779b97f4a7c15 + uint64(t.bank)*0xbf58476d1ce4e5b9
	return int(h % uint64(len(c.sets)))
}

// lookup finds or fills the cache line, returning the way and whether extra
// DRAM accesses were needed (fetch, plus writeback of a dirty victim).
func (c *CRA) lookup(t lineTag) (w *way, extra int) {
	c.tick++
	set := c.sets[c.setIndex(t)]
	var victim *way
	for i := range set {
		if set[i].valid && set[i].tag == t {
			set[i].lru = c.tick
			c.hits++
			return &set[i], 0
		}
		if victim == nil || !set[i].valid || (victim.valid && set[i].lru < victim.lru) {
			victim = &set[i]
		}
	}
	c.misses++
	extra = 1 // fetch the counter line from the DRAM counter region
	if victim.valid && victim.dirty {
		extra++ // write the evicted line back first
		c.writebacks++
	}
	victim.valid = true
	victim.dirty = false
	victim.tag = t
	victim.lru = c.tick
	if victim.counts == nil {
		victim.counts = make([]int, c.cfg.CountersPerLine)
	} else {
		for i := range victim.counts {
			victim.counts[i] = 0 // lines are zeroed in DRAM between windows
		}
	}
	return victim, extra
}

// OnActivate implements defense.Defense: bump the row's counter (fetching
// its cache line if absent) and refresh neighbours at the threshold.
func (c *CRA) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	t := lineTag{bank: bank.Flat(&c.cfg.DRAM), group: row / c.cfg.CountersPerLine}
	w, extra := c.lookup(t)
	slot := row % c.cfg.CountersPerLine
	w.counts[slot]++
	w.dirty = true
	act := defense.Action{ExtraAccesses: extra}
	if w.counts[slot] >= c.cfg.Threshold {
		w.counts[slot] = 0
		c.detections++
		act.Detected = true
		for d := -c.cfg.DRAM.BlastRadius; d <= c.cfg.DRAM.BlastRadius; d++ {
			v := row + d
			if d != 0 && v >= 0 && v < c.cfg.DRAM.RowsPerBank {
				act.LogicalVictims = append(act.LogicalVictims, v)
			}
		}
	}
	return act
}

// OnRefreshTick implements defense.Defense. The in-DRAM counters of rows
// covered by each auto-refresh are reset by the refresh logic itself; the
// cached copies age out naturally, so nothing to do at tick granularity.
func (c *CRA) OnRefreshTick(dram.BankID, clock.Time) {}

// Reset implements defense.Defense.
func (c *CRA) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = way{}
		}
	}
}
