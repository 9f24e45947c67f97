// Package cpu provides the application-level core model: each core turns a
// workload generator's access stream into timed memory traffic, hiding miss
// latency behind a bounded amount of memory-level parallelism the way the
// paper's out-of-order cores do (McSimA+'s "application-level+" fidelity).
package cpu

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/workload"
)

// Config describes the core's execution parameters (Table 4).
type Config struct {
	FreqGHz float64 // core clock (3.6 GHz)
	IPC     float64 // sustained non-memory IPC (4-wide issue ≈ 2.0 effective)
	MLP     int     // maximum outstanding demand misses per core
}

// DefaultConfig returns the Table 4 core: 3.6 GHz, effective IPC 2, MLP 10.
func DefaultConfig() Config {
	return Config{FreqGHz: 3.6, IPC: 2.0, MLP: 10}
}

// Frequency and IPC bounds: wide enough for any real core, narrow enough
// that one instruction lasts at most a millisecond of simulated time.
const minRate, maxRate = 1e-3, 1e3

// Validate reports whether the configuration is usable. The float checks
// are written so that NaN fails them.
func (c Config) Validate() error {
	switch {
	case !(minRate <= c.FreqGHz && c.FreqGHz <= maxRate):
		return fmt.Errorf("cpu: frequency %v GHz outside [%g, %g]", c.FreqGHz, minRate, maxRate)
	case !(minRate <= c.IPC && c.IPC <= maxRate):
		return fmt.Errorf("cpu: IPC %v outside [%g, %g]", c.IPC, minRate, maxRate)
	case c.MLP < 1:
		return fmt.Errorf("cpu: MLP must be at least 1, got %d", c.MLP)
	}
	return nil
}

// Core is one simulated hardware thread.
type Core struct {
	ID  int
	cfg Config
	gen workload.Generator

	nextIssue   clock.Time
	outstanding int
	deferred    workload.Access // access that could not enter the MC queue, valid while hasDeferred
	hasDeferred bool

	instructions int64
}

// New builds a core over the given generator.
func New(id int, cfg Config, gen workload.Generator) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil {
		return nil, fmt.Errorf("cpu: core %d has no generator", id)
	}
	return &Core{ID: id, cfg: cfg, gen: gen}, nil
}

// Instructions returns the instructions executed so far.
func (c *Core) Instructions() int64 { return c.instructions }

// NextEventTime returns when the core can next act: its issue time when it
// has MLP headroom, or Never while the window is full (completion callbacks
// reopen it).
func (c *Core) NextEventTime() clock.Time {
	if c.outstanding >= c.cfg.MLP {
		return clock.Never
	}
	return c.nextIssue
}

// gapTime converts an instruction gap to core time: at least 1 ps, and
// clock.Never for a gap too long to represent.
func (c *Core) gapTime(gap int) clock.Time {
	ps := float64(gap) / c.cfg.IPC * 1000.0 / c.cfg.FreqGHz
	switch {
	case !(ps < float64(clock.Never)):
		return clock.Never
	case ps < 1:
		return 1
	}
	return clock.Time(ps)
}

// delay moves the next issue time d later, saturating at clock.Never.
func (c *Core) delay(d clock.Time) {
	if d >= clock.Never-c.nextIssue {
		c.nextIssue = clock.Never
		return
	}
	c.nextIssue += d
}

// Take produces the core's next access at time now, advancing execution by
// the access's instruction gap. Callers must respect NextEventTime.
func (c *Core) Take(now clock.Time) workload.Access {
	var a workload.Access
	if c.hasDeferred {
		a, c.hasDeferred = c.deferred, false
	} else {
		a = c.gen.Next()
		c.instructions += int64(a.Gap)
	}
	if now > c.nextIssue {
		c.nextIssue = now
	}
	c.delay(c.gapTime(a.Gap))
	return a
}

// Defer hands back an access that could not be accepted (full MC queue); the
// core retries it no earlier than retryAt.
func (c *Core) Defer(a workload.Access, retryAt clock.Time) {
	c.deferred, c.hasDeferred = a, true
	if retryAt > c.nextIssue {
		c.nextIssue = retryAt
	}
}

// OnHit accounts a cache hit: execution simply absorbs the hit latency.
func (c *Core) OnHit(latency clock.Time) {
	c.delay(latency)
}

// OnMiss accounts a demand miss entering the memory system: the core keeps
// running until its MLP window fills.
func (c *Core) OnMiss() {
	c.outstanding++
}

// OnComplete accounts a returning demand miss.
func (c *Core) OnComplete() {
	if c.outstanding > 0 {
		c.outstanding--
	}
}
