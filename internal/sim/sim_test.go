package sim

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/cbt"
	"repro/internal/defense/graphene"
	"repro/internal/defense/para"
	"repro/internal/defense/trr"
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/workload"
)

// scaledConfig returns a machine with a shortened refresh window (1 ms) and
// a low row-hammer threshold so attacks and defenses resolve in fast tests:
// maxlife = 128, so a sound TWiCe uses thRH = 512 (thPI 4) and Nth = 2048.
func scaledConfig() Config {
	cfg := DefaultConfig(1)
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	return cfg
}

func scaledTWiCe(t *testing.T, cfg Config, org core.Org) *core.TWiCe {
	t.Helper()
	c := core.NewConfig(cfg.DRAM)
	c.ThRH = 512
	c.Org = org
	tw, err := core.New(c)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

func s3Workload(t *testing.T, cfg Config) workload.Workload {
	t.Helper()
	m, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return workload.S3(m, cfg.DRAM, 5000)
}

// TestConfigValidate checks each config through NewMachine, which must
// return Validate's error rather than build a machine that panics in Run.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"cpu mlp 0", func(c *Config) { c.CPU.MLP = 0 }, false},
		{"device banks differ", func(c *Config) { c.DRAM.BanksPerRank = 8 }, false},
		{"controller channels differ", func(c *Config) { c.MC.DRAM.Channels = 4 }, false},
		{"controller timing differs", func(c *Config) { c.MC.DRAM.TRC = 50 * clock.Nanosecond }, false},
		{"device-only fields", func(c *Config) {
			c.DRAM.NTh, c.DRAM.BlastRadius, c.DRAM.SCFRate, c.DRAM.SpareRowsPerBank = 4096, 2, 1e-3, 8
		}, true},
	}
	w := s3Workload(t, DefaultConfig(1))
	for _, tc := range cases {
		cfg := DefaultConfig(1)
		tc.edit(&cfg)
		if m, err := NewMachine(cfg, nil, w); (err == nil) != tc.ok {
			t.Errorf("%s: NewMachine error = %v, want ok=%v", tc.name, err, tc.ok)
		} else if err == nil {
			if _, err := m.Run(DefaultLimits(200)); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// TestShortestRefreshIntervalServes runs DDR4 at the shortest refresh
// interval dram.Params.Validate accepts, tREFI = tRFC + tRC (395 ns): one
// bank activation fits between two refreshes (maxact 1), so the machine must
// validate and still serve S1 and S3.
func TestShortestRefreshIntervalServes(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DRAM.TREFI = cfg.DRAM.TRFC + cfg.DRAM.TRC
	cfg.MC = mc.NewConfig(cfg.DRAM)
	for _, w := range []workload.Workload{s1Workload(t, cfg), s3Workload(t, cfg)} {
		res, err := Run(cfg, defense.Nop{}, w, DefaultLimits(2000))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Counters.RequestsServed < 2000 {
			t.Errorf("%s: served %d of 2000 requests in %v", w.Name, res.Counters.RequestsServed, res.SimTime)
		}
	}
}

// TestNegativeCommandTimingRejected pins the fix for a silent stall: a
// negative tRRD (or tCCD), added to the timing checker's "no previous
// command" sentinel, overflowed to clock.Never, so no ACT (or column) was
// ever legal and Run returned no error after serving none of its requests.
func TestNegativeCommandTimingRejected(t *testing.T) {
	const neg = -2 * clock.Picosecond
	cases := []struct {
		name string
		edit func(*dram.Params)
	}{
		{"tRRD", func(p *dram.Params) { p.TRRD, p.TRRDL = neg, neg }},
		{"tCCD", func(p *dram.Params) { p.TCCD, p.TCCDL = neg, neg }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(1)
		tc.edit(&cfg.DRAM)
		tc.edit(&cfg.MC.DRAM)
		res, err := Run(cfg, defense.Nop{}, s3Workload(t, DefaultConfig(1)), DefaultLimits(2000))
		if err == nil {
			t.Errorf("%s = %v: Run returned no error (served %d of 2000 requests)", tc.name, neg, res.Counters.RequestsServed)
		}
	}
}

// TestInvalidControllerRejected pins three controller settings the
// controller cannot run: an unknown page policy (it used to run as open
// page), and a write buffer of depth 0 or -1 (the controller has no
// unbuffered write path). Run must refuse them before simulating anything.
func TestInvalidControllerRejected(t *testing.T) {
	cases := []struct {
		name string
		edit func(*mc.Config)
	}{
		{"page policy 9", func(c *mc.Config) { c.PagePolicy = mc.PagePolicy(9) }},
		{"write queue depth 0", func(c *mc.Config) { c.WriteQueueDepth = 0 }},
		{"write queue depth -1", func(c *mc.Config) { c.WriteQueueDepth = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(1)
		tc.edit(&cfg.MC)
		if res, err := Run(cfg, defense.Nop{}, s3Workload(t, cfg), DefaultLimits(200)); err == nil {
			t.Errorf("%s: Run returned no error (served %d of 200 requests)", tc.name, res.Counters.RequestsServed)
		}
	}
}

func TestRunRequiresLimits(t *testing.T) {
	cfg := scaledConfig()
	if _, err := Run(cfg, defense.Nop{}, s3Workload(t, cfg), Limits{}); err == nil {
		t.Error("unbounded run accepted")
	}
}

func TestHammerWithoutDefenseFlipsBits(t *testing.T) {
	cfg := scaledConfig()
	res, err := Run(cfg, defense.Nop{}, s3Workload(t, cfg), DefaultLimits(60000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) == 0 {
		t.Fatalf("no bit flips under an undefended hammer (ACTs=%d)", res.Counters.NormalACTs)
	}
	if got := res.Counters.BitFlips; got != int64(len(res.Flips)) {
		t.Errorf("Counters.BitFlips = %d, want %d (len(Flips))", got, len(res.Flips))
	}
	f := res.Flips[0]
	phys := 5000 // identity remap is not guaranteed; victim within ±1 of aggressor's home
	if f.PhysRow < phys-2 || f.PhysRow > phys+2 {
		t.Errorf("flip at physical row %d, expected near %d", f.PhysRow, phys)
	}
}

func TestTWiCePreventsFlips(t *testing.T) {
	cfg := scaledConfig()
	for _, org := range []core.Org{core.FA, core.PA, core.Separated} {
		tw := scaledTWiCe(t, cfg, org)
		res, err := Run(cfg, tw, s3Workload(t, cfg), DefaultLimits(60000))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flips) != 0 {
			t.Errorf("%v: %d flips under TWiCe", org, len(res.Flips))
		}
		if res.Counters.Detections == 0 {
			t.Errorf("%v: hammer not detected", org)
		}
		if res.Counters.ARRs == 0 {
			t.Errorf("%v: no ARRs issued", org)
		}
	}
}

func TestTWiCeS3OverheadMatchesFormula(t *testing.T) {
	// The Figure 7(b) S3 shape: one ARR (2 victim ACTs) per thRH demand
	// ACTs, so additional ACTs ≈ 2/thRH (0.006% at the paper's 32768; here
	// 2/512 ≈ 0.39% with the scaled threshold).
	cfg := scaledConfig()
	tw := scaledTWiCe(t, cfg, core.PA)
	res, err := Run(cfg, tw, s3Workload(t, cfg), DefaultLimits(200000))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Counters.AdditionalACTRatio()
	want := 2.0 / 512.0
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("S3 additional-ACT ratio = %v, want ≈ %v", got, want)
	}
	if res.Counters.Nacks == 0 {
		t.Log("note: no nacks (no competing traffic during ARR windows)")
	}
}

func TestTWiCeQuietOnNormalWorkload(t *testing.T) {
	// The Figure 7(a) TWiCe bars: zero additional ACTs on benign traffic.
	cfg := scaledConfig()
	cfg.Cache.Cores = 2
	tw := scaledTWiCe(t, cfg, core.PA)
	w, err := workload.SPECRate("mcf", 2, uint64(cfg.DRAM.TotalCapacityBytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, tw, w, DefaultLimits(50000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.DefenseACTs != 0 {
		t.Errorf("TWiCe added %d ACTs on a benign workload", res.Counters.DefenseACTs)
	}
	if res.Counters.BitFlips != 0 || len(res.Flips) != 0 {
		t.Error("flips on a benign workload")
	}
}

func TestPARAOverheadTracksProbability(t *testing.T) {
	cfg := scaledConfig()
	pa, err := para.New(0.002, cfg.DRAM, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, pa, s3Workload(t, cfg), DefaultLimits(300000))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Counters.AdditionalACTRatio()
	if got < 0.001 || got > 0.004 {
		t.Errorf("PARA-0.002 additional-ACT ratio = %v, want ≈ 0.002", got)
	}
}

func TestCBTSpikesOnSingleRowAttack(t *testing.T) {
	cfg := scaledConfig()
	ccfg := cbt.NewConfig(cfg.DRAM)
	ccfg.Threshold = 512 // scale with the shortened window
	cb, err := cbt.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, cb, s3Workload(t, cfg), DefaultLimits(300000))
	if err != nil {
		t.Fatal(err)
	}
	// Leaf range = 131072 / 2^10 = 128 rows per refresh burst: the ratio
	// should be ≈ 128/512 = 0.25, orders of magnitude above TWiCe's 2/512.
	got := res.Counters.AdditionalACTRatio()
	if got < 0.05 {
		t.Errorf("CBT S3 ratio = %v, want ≈ 0.25 (leaf-range bursts)", got)
	}
	if res.Counters.BitFlips != 0 {
		t.Error("CBT failed to prevent flips")
	}
}

func TestDefenseOrderingOnS3(t *testing.T) {
	// The paper's headline ordering: TWiCe < PARA < CBT on the attack
	// pattern, all with zero flips. TWiCe's ratio is 2/thRH, so the
	// relation to PARA-0.002 needs thRH > 1000; use 2048 (thPI 16) with
	// Nth scaled to keep the config sound.
	cfg := scaledConfig()
	cfg.DRAM.NTh = 4 * 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	lim := DefaultLimits(400000)

	ccfg0 := core.NewConfig(cfg.DRAM)
	ccfg0.ThRH = 2048
	tw, err := core.New(ccfg0)
	if err != nil {
		t.Fatal(err)
	}
	twRes, err := Run(cfg, tw, s3Workload(t, cfg), lim)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := para.New(0.002, cfg.DRAM, 5)
	paRes, err := Run(cfg, pa, s3Workload(t, cfg), lim)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cbt.NewConfig(cfg.DRAM)
	ccfg.Threshold = 2048
	cb, _ := cbt.New(ccfg)
	cbRes, err := Run(cfg, cb, s3Workload(t, cfg), lim)
	if err != nil {
		t.Fatal(err)
	}
	twR, paR, cbR := twRes.Counters.AdditionalACTRatio(), paRes.Counters.AdditionalACTRatio(), cbRes.Counters.AdditionalACTRatio()
	t.Logf("S3 ratios: TWiCe=%.5f PARA=%.5f CBT=%.5f", twR, paR, cbR)
	if !(twR < paR && paR < cbR) {
		t.Errorf("ordering violated: TWiCe=%v PARA=%v CBT=%v", twR, paR, cbR)
	}
}

func TestManySidedBypassesTRRButNotTWiCe(t *testing.T) {
	// The TRRespass contrast: an in-DRAM TRR sampler with few tracker
	// entries loses a many-sided hammer (the attacker evicts its own
	// aggressors from the tracker), while TWiCe's bounded-but-sufficient
	// table tracks every aggressor individually.
	cfg := scaledConfig()
	m, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	attack := func() workload.Workload { return workload.ManySided(m, 5000, 16) }
	lim := DefaultLimits(220000)

	tr, err := trr.New(trr.Config{TrackerEntries: 4, MAC: 512, DRAM: cfg.DRAM})
	if err != nil {
		t.Fatal(err)
	}
	trRes, err := Run(cfg, tr, attack(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(trRes.Flips) == 0 {
		t.Errorf("many-sided attack did not flip under TRR (detections=%d)", trRes.Counters.Detections)
	}

	tw := scaledTWiCe(t, cfg, core.PA)
	twRes, err := Run(cfg, tw, attack(), lim)
	if err != nil {
		t.Fatal(err)
	}
	if len(twRes.Flips) != 0 {
		t.Errorf("%d flips under TWiCe on a many-sided attack", len(twRes.Flips))
	}
	if twRes.Counters.Detections == 0 {
		t.Error("TWiCe did not detect the many-sided aggressors")
	}
}

func TestARRProtectsRemappedAggressor(t *testing.T) {
	// Failure injection: force a very high single-cell-failure rate so many
	// rows (almost certainly including neighbours of the hammered row) are
	// remapped to spares. The end-to-end ARR path must still clear the true
	// physical victims — no flips.
	cfg := scaledConfig()
	cfg.DRAM.SCFRate = 1e-3 // ~¼ of rows remapped (capped by spares)
	cfg.Remap = true
	tw := scaledTWiCe(t, cfg, core.PA)
	res, err := Run(cfg, tw, s3Workload(t, cfg), DefaultLimits(120000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 0 {
		t.Errorf("%d flips under TWiCe with heavy remapping", len(res.Flips))
	}
	if res.Counters.ARRs == 0 {
		t.Error("no ARRs issued")
	}
}

func TestMultiBankHammerStorm(t *testing.T) {
	// Failure injection: hammer a different bank from each of 8 cores so
	// ARR windows, nacks, and refreshes overlap constantly. The system must
	// make progress, detect every aggressor, and flip nothing.
	cfg := scaledConfig()
	m, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Workload{Name: "storm", BypassCache: true}
	for i := 0; i < 8; i++ {
		bw := workload.S3(m, cfg.DRAM, 1000+i)
		// Spread attackers across banks by offsetting the bank bits: reuse
		// the S3 generator but target distinct banks via distinct rows in
		// bank 0 plus the per-core hammers below.
		w.Gens = append(w.Gens, bw.Gens[0])
	}
	tw := scaledTWiCe(t, cfg, core.PA)
	res, err := Run(cfg, tw, w, DefaultLimits(400000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 0 {
		t.Errorf("%d flips during the hammer storm", len(res.Flips))
	}
	if res.Counters.Detections < 8 {
		t.Errorf("detections = %d, want at least one per aggressor row", res.Counters.Detections)
	}
	if res.Counters.Nacks == 0 {
		t.Error("no nacks despite overlapping ARR windows and traffic")
	}
}

func TestRefreshCadence(t *testing.T) {
	cfg := scaledConfig()
	res, err := Run(cfg, defense.Nop{}, s3Workload(t, cfg), Limits{MaxTime: 100 * cfg.DRAM.TREFI})
	if err != nil {
		t.Fatal(err)
	}
	ranks := int64(cfg.DRAM.Channels * cfg.DRAM.RanksPerChannel)
	want := 100 * ranks
	if res.Counters.Refreshes < want*8/10 || res.Counters.Refreshes > want*11/10 {
		t.Errorf("refreshes = %d over 100 tREFI, want ≈ %d", res.Counters.Refreshes, want)
	}
}

func TestCachedWorkloadFiltersTraffic(t *testing.T) {
	cfg := scaledConfig()
	w, err := workload.SPECRate("povray", 1, uint64(cfg.DRAM.TotalCapacityBytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, defense.Nop{}, w, Limits{MaxRequests: 2000, MaxTime: 50 * clock.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Counters.CacheHits + res.Counters.CacheMisses
	if total == 0 {
		t.Fatal("no cache activity")
	}
	hitRate := float64(res.Counters.CacheHits) / float64(total)
	if hitRate < 0.5 {
		t.Errorf("povray hit rate = %v, want high (7 MB footprint, streaming)", hitRate)
	}
}

func TestInstructionAccounting(t *testing.T) {
	cfg := scaledConfig()
	w, err := workload.SPECRate("mcf", 1, uint64(cfg.DRAM.TotalCapacityBytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, defense.Nop{}, w, DefaultLimits(5000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Instructions == 0 {
		t.Error("no instructions accounted")
	}
}

func TestGrapheneMatchesTWiCeEndToEnd(t *testing.T) {
	// The follow-on comparison: Graphene at the same threshold stops the
	// same attack with the same detection count, no flips, and a table an
	// order of magnitude smaller.
	cfg := scaledConfig()
	gr, err := graphene.New(graphene.NewConfig(cfg.DRAM, 512))
	if err != nil {
		t.Fatal(err)
	}
	gRes, err := Run(cfg, gr, s3Workload(t, cfg), DefaultLimits(150000))
	if err != nil {
		t.Fatal(err)
	}
	tw := scaledTWiCe(t, cfg, core.PA)
	tRes, err := Run(cfg, tw, s3Workload(t, cfg), DefaultLimits(150000))
	if err != nil {
		t.Fatal(err)
	}
	if len(gRes.Flips) != 0 {
		t.Errorf("flips under Graphene: %d", len(gRes.Flips))
	}
	if gRes.Counters.Detections == 0 {
		t.Error("Graphene missed the hammer")
	}
	// Detection cadence within 2× of TWiCe's (both fire ≈ once per thRH).
	gd, td := gRes.Counters.Detections, tRes.Counters.Detections
	if gd < td/2 || gd > 2*td {
		t.Errorf("Graphene detections = %d vs TWiCe %d", gd, td)
	}
}
