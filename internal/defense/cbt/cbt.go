// Package cbt implements the Counter-Based Tree row-hammer mitigation
// (Seyedzadeh, Jones, Melhem — IEEE CAL 2017 / ISCA 2018), the strongest
// counter-based baseline the TWiCe paper compares against.
//
// A bounded pool of counters is organised as a non-uniform binary tree over
// the bank's row range. Initially one counter covers every row. When a
// counter crosses its level's sub-threshold and a free counter is available,
// it splits into two children, each initialised to the parent's count (the
// paper's double-counting artefact). When a counter reaches the top
// threshold, every row in its range must be refreshed — which on adversarial
// patterns covers thousands of rows at once, the refresh-burst weakness
// TWiCe's evaluation exposes with workload S2. Splits stop when the pool is
// empty; there is no reclamation, which is what S2 exploits. The tree resets
// every tREFW.
package cbt

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// Config parameterises a CBT instance.
type Config struct {
	// Counters is the pool size per bank (the paper evaluates CBT-256).
	Counters int
	// Threshold is the top refresh threshold (32K in the evaluation).
	Threshold int
	// Levels is the number of tree levels / sub-thresholds (11 in the
	// evaluation: the deepest counter covers rows/2^(Levels-1) rows).
	Levels int
	// DRAM supplies geometry and the refresh-window reset cadence.
	DRAM dram.Params
}

// NewConfig returns the paper's CBT-256 configuration: 256 counters,
// threshold 32K, 11 levels.
func NewConfig(p dram.Params) Config {
	return Config{Counters: 256, Threshold: 32768, Levels: 11, DRAM: p}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Counters < 1:
		return fmt.Errorf("cbt: counter pool must be positive, got %d", c.Counters)
	case c.Threshold < 2:
		return fmt.Errorf("cbt: threshold too small: %d", c.Threshold)
	case c.Levels < 1:
		return fmt.Errorf("cbt: need at least one level, got %d", c.Levels)
	case 1<<(c.Levels-1) > c.DRAM.RowsPerBank:
		return fmt.Errorf("cbt: %d levels too deep for %d rows", c.Levels, c.DRAM.RowsPerBank)
	}
	return c.DRAM.Validate()
}

// subThreshold returns the split threshold for a node at the given 0-based
// level: geometrically spaced (halving per level up from the top threshold),
// so the tree adapts quickly — shallow counters split after a handful of
// activations and only the deepest level pays the full threshold. This is
// the schedule that makes the evaluation's S2 behave as described ("access
// half the rows until all counters split"): with 11 levels the whole pool is
// consumed by a plain sweep within one refresh window.
func (c Config) subThreshold(level int) int {
	t := c.Threshold >> (c.Levels - 1 - level)
	if t < 2 {
		t = 2
	}
	return t
}

// node is one tree node. Leaves own a counter; internal nodes only route.
type node struct {
	lo, hi      int // row range [lo, hi)
	level       int
	count       int
	left, right *node // nil for leaves
}

func (n *node) leaf() bool { return n.left == nil }

// bankTree is the per-bank counter tree.
type bankTree struct {
	root     *node
	leaves   int
	maxDepth int
}

// CBT implements defense.Defense.
type CBT struct {
	cfg        Config //twicelint:keep configuration, fixed at construction
	trees      []*bankTree
	ticks      []int // refresh ticks since last tree reset, per bank
	resetEvery int   //twicelint:keep ticks per tREFW, fixed at construction
}

var _ defense.Defense = (*CBT)(nil)

// New builds a CBT engine.
func New(cfg Config) (*CBT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.DRAM.TotalBanks()
	c := &CBT{
		cfg:        cfg,
		trees:      make([]*bankTree, n),
		ticks:      make([]int, n),
		resetEvery: cfg.DRAM.RefreshTicksPerWindow(),
	}
	for i := range c.trees {
		c.trees[i] = c.newTree()
	}
	return c, nil
}

func (c *CBT) newTree() *bankTree {
	return &bankTree{
		root:     &node{lo: 0, hi: c.cfg.DRAM.RowsPerBank},
		leaves:   1,
		maxDepth: c.cfg.Levels - 1,
	}
}

// Name implements defense.Defense.
func (c *CBT) Name() string { return fmt.Sprintf("CBT-%d", c.cfg.Counters) }

// find walks to the leaf covering row.
func (t *bankTree) find(row int) *node {
	n := t.root
	for !n.leaf() {
		if row < n.left.hi {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// split divides a leaf into two children initialised to the parent's count.
func (t *bankTree) split(n *node) {
	mid := n.lo + (n.hi-n.lo)/2
	n.left = &node{lo: n.lo, hi: mid, level: n.level + 1, count: n.count}
	n.right = &node{lo: mid, hi: n.hi, level: n.level + 1, count: n.count}
	t.leaves++
}

// OnActivate implements defense.Defense.
func (c *CBT) OnActivate(bank dram.BankID, row int, _ clock.Time) defense.Action {
	t := c.trees[bank.Flat(&c.cfg.DRAM)]
	n := t.find(row)
	n.count++

	// Top threshold: refresh the whole covered range. This is where CBT's
	// false-positive bursts come from — every row in the group is treated
	// as a potential victim and the rows adjacent to the range's edges too.
	if n.count >= c.cfg.Threshold {
		n.count = 0
		victims := make([]int, 0, n.hi-n.lo+2*c.cfg.DRAM.BlastRadius)
		for r := n.lo - c.cfg.DRAM.BlastRadius; r < n.hi+c.cfg.DRAM.BlastRadius; r++ {
			if r >= 0 && r < c.cfg.DRAM.RowsPerBank {
				victims = append(victims, r)
			}
		}
		return defense.Action{LogicalVictims: victims, Detected: true}
	}

	// Sub-threshold: subdivide hot ranges while counters remain.
	if n.level < t.maxDepth && n.hi-n.lo > 1 && n.count >= c.cfg.subThreshold(n.level) &&
		t.leaves < c.cfg.Counters {
		t.split(n)
	}
	return defense.Action{}
}

// OnRefreshTick implements defense.Defense: CBT resets its tree every tREFW
// (the paper's design), which we pace by counting per-bank refresh ticks.
func (c *CBT) OnRefreshTick(bank dram.BankID, _ clock.Time) {
	i := bank.Flat(&c.cfg.DRAM)
	c.ticks[i]++
	if c.ticks[i] >= c.resetEvery {
		c.ticks[i] = 0
		c.trees[i] = c.newTree()
	}
}

// Reset implements defense.Defense.
func (c *CBT) Reset() {
	for i := range c.trees {
		c.trees[i] = c.newTree()
		c.ticks[i] = 0
	}
}
