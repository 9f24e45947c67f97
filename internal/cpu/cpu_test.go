package cpu

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/workload"
)

// fixedGen emits a fixed-gap stream of incrementing addresses.
type fixedGen struct {
	gap  int
	next uint64
}

func (g *fixedGen) Name() string { return "fixed" }
func (g *fixedGen) Next() workload.Access {
	g.next += 64
	return workload.Access{Addr: g.next, Gap: g.gap}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.IPC = -1 },
		func(c *Config) { c.MLP = 0 },
	} {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	if _, err := New(0, DefaultConfig(), nil); err == nil {
		t.Error("nil generator accepted")
	}
}

// TestFloatBounds covers the float fields' range checks, NaN and the
// infinities included, and the gap's saturation at clock.Never. A gap too
// long to represent must not convert to MinInt64, which the 1 ps floor
// would turn into a core issuing at full speed.
func TestFloatBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name      string
		freq, ipc float64
		gap       int
		valid     bool
		want      clock.Time // gapTime(gap), for valid configs
	}{
		{"defaults", 3.6, 2, 100, true, 13888},
		{"zero gap", 3.6, 2, 0, true, 1},
		{"slowest core", 1e-3, 1e-3, 1000, true, clock.Time(1e12)},
		{"fastest core", 1e3, 1e3, 1, true, 1},
		{"gap too long to represent", 1e-3, 1e-3, 1 << 40, true, clock.Never},
		{"NaN frequency", nan, 2, 100, false, 0},
		{"infinite frequency", inf, 2, 100, false, 0},
		{"negative infinite frequency", -inf, 2, 100, false, 0},
		{"frequency below range", 1e-300, 2, 100, false, 0},
		{"frequency above range", 1e4, 2, 100, false, 0},
		{"NaN IPC", 3.6, nan, 100, false, 0},
		{"infinite IPC", 3.6, inf, 100, false, 0},
		{"tiny IPC", 3.6, 1e-300, 100, false, 0},
		{"zero IPC", 3.6, 0, 100, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{FreqGHz: c.freq, IPC: c.ipc, MLP: 4}
			core, err := New(0, cfg, &fixedGen{gap: c.gap})
			if (err == nil) != c.valid {
				t.Fatalf("New(%+v) error = %v, want valid %v", cfg, err, c.valid)
			}
			if !c.valid {
				return
			}
			if got := core.gapTime(c.gap); got != c.want {
				t.Errorf("gapTime(%d) = %v, want %v", c.gap, got, c.want)
			}
			// Take and OnHit saturate too, rather than wrap past Never.
			core.Take(clock.Never - 1)
			core.OnHit(clock.Never)
			if got := core.NextEventTime(); got != clock.Never {
				t.Errorf("next issue after a gap from Never-1 and a long hit = %v, want never", got)
			}
		})
	}
}

func TestGapAdvancesIssueTime(t *testing.T) {
	cfg := Config{FreqGHz: 2.0, IPC: 2.0, MLP: 4}
	c, err := New(0, cfg, &fixedGen{gap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if c.NextEventTime() != 0 {
		t.Fatal("fresh core not ready at 0")
	}
	c.Take(0)
	// 100 instructions / 2 IPC = 50 cycles at 2 GHz = 25 ns.
	if got := c.NextEventTime(); got != 25*clock.Nanosecond {
		t.Errorf("next issue = %v, want 25ns", got)
	}
	if c.Instructions() != 100 {
		t.Errorf("instructions = %d, want 100", c.Instructions())
	}
}

func TestMLPWindowBlocks(t *testing.T) {
	cfg := Config{FreqGHz: 1, IPC: 1, MLP: 2}
	c, _ := New(0, cfg, &fixedGen{gap: 1})
	c.Take(0)
	c.OnMiss()
	c.Take(0)
	c.OnMiss()
	if c.NextEventTime() != clock.Never {
		t.Fatal("full MLP window still schedulable")
	}
	c.OnComplete()
	if c.NextEventTime() == clock.Never {
		t.Fatal("completion did not reopen the window")
	}
	if c.Outstanding() != 1 {
		t.Errorf("outstanding = %d", c.Outstanding())
	}
}

func TestDeferRetriesSameAccess(t *testing.T) {
	cfg := Config{FreqGHz: 1, IPC: 1, MLP: 4}
	c, _ := New(0, cfg, &fixedGen{gap: 1})
	a := c.Take(0)
	c.Defer(a, 500*clock.Nanosecond)
	if got := c.NextEventTime(); got != 500*clock.Nanosecond {
		t.Errorf("retry time = %v, want 500ns", got)
	}
	b := c.Take(500 * clock.Nanosecond)
	if b.Addr != a.Addr || b.Write != a.Write {
		t.Errorf("retried access %+v, want %+v", b, a)
	}
	if c.Instructions() != 1 {
		t.Errorf("instructions = %d, want 1; a deferred retry must add no instructions", c.Instructions())
	}
}

// TestDeferTakeZeroAllocs pins a queue-full deferral and its retry at zero
// allocations on a warm core: the core keeps the deferred access by value.
func TestDeferTakeZeroAllocs(t *testing.T) {
	c, _ := New(0, Config{FreqGHz: 1, IPC: 1, MLP: 4}, &fixedGen{gap: 1})
	now := clock.Time(0)
	round := func() {
		a := c.Take(now)
		now += clock.Nanosecond
		c.Defer(a, now)
		if b := c.Take(now); b != a {
			t.Fatalf("retried access %+v, want %+v", b, a)
		}
	}
	round() // warm
	const n = 1000
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			round()
		}
	}); avg != 0 {
		t.Errorf("%v allocations over %d Defer+Take rounds, want 0", avg, n)
	}
}

func TestHitLatencyAbsorbed(t *testing.T) {
	cfg := Config{FreqGHz: 1, IPC: 1, MLP: 4}
	c, _ := New(0, cfg, &fixedGen{gap: 1})
	c.Take(0)
	base := c.NextEventTime()
	c.OnHit(10 * clock.Nanosecond)
	if got := c.NextEventTime(); got != base+10*clock.Nanosecond {
		t.Errorf("issue time = %v, want %v", got, base+10*clock.Nanosecond)
	}
}

func TestOnCompleteFloorsAtZero(t *testing.T) {
	c, _ := New(0, DefaultConfig(), &fixedGen{gap: 1})
	c.OnComplete() // spurious completion must not wrap
	if c.Outstanding() != 0 {
		t.Errorf("outstanding = %d", c.Outstanding())
	}
}
