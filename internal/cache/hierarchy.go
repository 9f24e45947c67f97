package cache

import (
	"fmt"

	"repro/internal/clock"
)

// MemAccess is one cache-line request the hierarchy sends to main memory:
// a demand fill, a write-miss fill, a prefetch or a dirty writeback.
type MemAccess struct {
	Addr   uint64
	Write  bool
	Demand bool // the core waits on this access (demand read fill)
}

// Result describes the outcome of one core access.
type Result struct {
	// HitLevel is the level that served the access: 1, 2, 3, or 0 for main
	// memory.
	HitLevel int
	// Latency is the accumulated cache-pipeline latency (memory latency is
	// determined by the controller and added by the caller).
	Latency clock.Time
	// Mem lists the memory accesses generated: at most one demand fill,
	// plus dirty writebacks and prefetches. It is backed by storage the
	// hierarchy reuses, so it is valid until the next Access on the same
	// hierarchy: consume it, or copy it, before calling Access again.
	Mem []MemAccess
}

// maxMemPerAccess bounds the memory accesses one Access generates: a
// writeback at the end of the L1 victim's cascade, of the L2 victim's, of
// the prefetch's L2 victim's and of the L3 victims of the prefetch and the
// demand miss, then the prefetch and the demand fill.
const maxMemPerAccess = 7

// HierarchyConfig describes the full hierarchy. Every hierarchy runs Table
// 4's linear next-line prefetcher into L2.
type HierarchyConfig struct {
	Cores int
	L1    Config // private, per core
	L2    Config // private, per core
	L3    Config // shared
}

// DefaultHierarchy returns the Table 4 hierarchy for the given core count:
// 16 KB L1 and 128 KB L2 private caches, a 16 MB shared L3 and 64 B lines.
func DefaultHierarchy(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1:    Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4, Latency: 1111 * clock.Picosecond},   // ~4 cycles @3.6GHz
		L2:    Config{SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, Latency: 3333 * clock.Picosecond},  // ~12 cycles
		L3:    Config{SizeBytes: 16 << 20, LineBytes: 64, Ways: 16, Latency: 10555 * clock.Picosecond}, // ~38 cycles
	}
}

// Validate reports whether the hierarchy configuration is usable.
func (c HierarchyConfig) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("cache: need at least one core, got %d", c.Cores)
	}
	for _, l := range []struct {
		name string
		cfg  Config
	}{{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3}} {
		if err := l.cfg.Validate(); err != nil {
			return fmt.Errorf("cache: %s: %w", l.name, err)
		}
		if l.cfg.LineBytes != c.L1.LineBytes {
			return fmt.Errorf("cache: %s line size differs from L1", l.name)
		}
	}
	return nil
}

// Hierarchy is the instantiated cache system.
type Hierarchy struct {
	cfg HierarchyConfig //twicelint:keep topology, fixed at construction
	l1  []*Cache
	l2  []*Cache
	l3  *Cache
	mem [maxMemPerAccess]MemAccess //twicelint:keep backing array of Result.Mem; every Access starts it empty
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, l1: make([]*Cache, cfg.Cores), l2: make([]*Cache, cfg.Cores)}
	var err error
	for i := 0; i < cfg.Cores; i++ {
		if h.l1[i], err = New(cfg.L1); err != nil {
			return nil, err
		}
		if h.l2[i], err = New(cfg.L2); err != nil {
			return nil, err
		}
	}
	if h.l3, err = New(cfg.L3); err != nil {
		return nil, err
	}
	return h, nil
}

// Cores returns the number of cores the hierarchy was built for.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// Reset invalidates every cache in the hierarchy and zeroes all counters,
// reusing the line storage (machine-recycling path).
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].Reset()
		h.l2[i].Reset()
	}
	h.l3.Reset()
}

// L3Stats returns the shared L3 counters.
func (h *Hierarchy) L3Stats() Stats { return h.l3.Stats() }

// Access runs one core access through the hierarchy. Dirty victims cascade
// into the next level (write-back); lines are filled on miss (write-
// allocate); the demand fill of a read miss is the only access the core
// waits for. The result's Mem is overwritten by the next Access.
func (h *Hierarchy) Access(core int, addr uint64, write bool) Result {
	res := Result{Latency: h.cfg.L1.Latency, Mem: h.mem[:0]}
	l1, l2 := h.l1[core], h.l2[core]

	hit1, v1, hasV1 := l1.Access(addr, write)
	if hasV1 {
		h.writeInto(2, core, v1, &res)
	}
	if hit1 {
		res.HitLevel = 1
		return res
	}

	res.Latency += h.cfg.L2.Latency
	// Store dirtiness lives in L1; lower levels receive clean fills until a
	// dirty victim cascades down.
	hit2, v2, hasV2 := l2.Access(addr, false)
	if hasV2 {
		h.writeInto(3, core, v2, &res)
	}
	h.prefetchNext(core, addr, &res)
	if hit2 {
		res.HitLevel = 2
		return res
	}

	res.Latency += h.cfg.L3.Latency
	hit3, v3, hasV3 := h.l3.Access(addr, false)
	if hasV3 {
		res.Mem = append(res.Mem, MemAccess{Addr: v3, Write: true})
	}
	if hit3 {
		res.HitLevel = 3
		return res
	}

	// Memory fill. Write misses allocate but the core does not wait for
	// them (stores retire into the L1 line once it arrives).
	res.HitLevel = 0
	res.Mem = append(res.Mem, MemAccess{Addr: addr, Demand: !write})
	return res
}

// writeInto deposits a dirty victim line into the given level, cascading
// displaced dirty lines downward until they reach memory.
func (h *Hierarchy) writeInto(level, core int, addr uint64, res *Result) {
	switch level {
	case 2:
		if _, v, has := h.l2[core].Fill(addr, true); has {
			h.writeInto(3, core, v, res)
		}
	default:
		if _, v, has := h.l3.Fill(addr, true); has {
			res.Mem = append(res.Mem, MemAccess{Addr: v, Write: true})
		}
	}
}

// prefetchNext implements the linear next-line prefetcher: on every L1
// miss, L2 hits included, pull the next line into L2 (from L3 if resident,
// otherwise from memory). A next line already in L2 is left alone.
func (h *Hierarchy) prefetchNext(core int, addr uint64, res *Result) {
	next := addr + uint64(h.cfg.L1.LineBytes)
	resident, v, has := h.l2[core].Fill(next, false)
	if resident {
		return
	}
	if has {
		h.writeInto(3, core, v, res)
	}
	resident, v, has = h.l3.Fill(next, false)
	if has {
		res.Mem = append(res.Mem, MemAccess{Addr: v, Write: true})
	}
	if !resident { // served on-chip when L3 holds it
		res.Mem = append(res.Mem, MemAccess{Addr: next})
	}
}
