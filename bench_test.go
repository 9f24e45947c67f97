// Benchmarks regenerate every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment at a reduced "quick"
// scale (refresh window and thresholds shrunk 64×, which preserves every
// reported ratio) and publishes the reproduced numbers as benchmark metrics:
//
//	go test -bench=Figure7b -benchmem        # the §7.2 synthetic study
//	go test -bench=. -benchmem               # everything
//
// The `extra_act_pct` metric is the paper's y-axis (additional row
// activations as a percent of normal activations). cmd/paperrepro runs the
// same experiments at full paper scale and renders the complete tables.
package twice

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/graphene"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/sim"
)

// benchScale sizes experiment cells so individual benchmark iterations
// finish in roughly a second.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Cores = 2
	s.Requests = 60000
	s.SPECApps = []string{"mcf", "lbm", "povray"}
	return s
}

// BenchmarkTable1Comparison regenerates the Table 1 qualitative comparison:
// per-defense overhead on typical vs adversarial patterns plus
// detectability, covering CRA and PRoHIT beyond the Figure 7 set.
func BenchmarkTable1Comparison(b *testing.B) {
	s := benchScale()
	s.Requests = 30000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderTable1(rows))
		}
	}
}

// BenchmarkTable2Parameters regenerates the Table 2 derivations (thPI,
// maxact, maxlife) and the §4.4 table bound at full paper scale.
func BenchmarkTable2Parameters(b *testing.B) {
	var d Derived
	for i := 0; i < b.N; i++ {
		d = experiments.Table2(experiments.PaperScale())
	}
	b.ReportMetric(float64(d.ThPI), "thPI")
	b.ReportMetric(float64(d.MaxACT), "maxact")
	b.ReportMetric(float64(d.MaxLife), "maxlife")
	b.ReportMetric(float64(d.TableBound), "table_entries")
}

// BenchmarkTable3Energy regenerates the §7.1 energy overheads by running an
// S3 attack under TWiCe and aggregating the Table 3 constants over the
// simulated command mix.
func BenchmarkTable3Energy(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		bd, err := experiments.Table3Measured(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*bd.CountOverhead(), "count_energy_pct")
		b.ReportMetric(100*bd.UpdateOverhead(), "update_energy_pct")
	}
}

// BenchmarkTable4SystemThroughput exercises the Table 4 machine end to end
// (mix-high over the full controller/cache stack) and reports simulated
// memory throughput, standing in for the configuration table's "does this
// system behave like a 16-core DDR4-2400 box" claim.
func BenchmarkTable4SystemThroughput(b *testing.B) {
	s := benchScale()
	cfg := s.MachineConfig()
	for i := 0; i < b.N; i++ {
		res, _ := runNamed(b, s, cfg, "mix-high", "TWiCe")
		gbps := float64(res.Counters.RequestsServed*64) / res.SimTime.Seconds() / 1e9
		b.ReportMetric(gbps, "GB/s")
		b.ReportMetric(100*res.Counters.RowHitRate(), "row_hit_pct")
	}
}

// BenchmarkFigure7a regenerates the multi-programmed / multi-threaded study:
// one sub-benchmark per (workload, defense) bar of Figure 7(a).
func BenchmarkFigure7a(b *testing.B) {
	s := benchScale()
	cfg := s.MachineConfig()
	for _, wname := range []string{"specrate:mcf", "mix-high", "mix-blend", "FFT", "MICA", "PageRank", "RADIX"} {
		for _, dname := range experiments.DefenseNames() {
			b.Run(wname+"/"+dname, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, _ := runNamed(b, s, cfg, wname, dname)
					b.ReportMetric(100*res.Counters.AdditionalACTRatio(), "extra_act_pct")
					b.ReportMetric(float64(len(res.Flips)), "flips")
				}
			})
		}
	}
}

// BenchmarkFigure7b regenerates the synthetic study: one sub-benchmark per
// (S1/S2/S3, defense) bar of Figure 7(b).
func BenchmarkFigure7b(b *testing.B) {
	s := benchScale()
	cfg := s.MachineConfig()
	for _, wname := range []string{"S1", "S2", "S3"} {
		for _, dname := range experiments.DefenseNames() {
			b.Run(wname+"/"+dname, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, _ := runNamed(b, s, cfg, wname, dname)
					b.ReportMetric(100*res.Counters.AdditionalACTRatio(), "extra_act_pct")
					b.ReportMetric(float64(res.Counters.Detections), "detections")
					b.ReportMetric(float64(len(res.Flips)), "flips")
				}
			})
		}
	}
}

// BenchmarkTableSizeBound regenerates the §4.4 counter-table bound (556
// entries for the Table 2 parameters; the paper reports 553).
func BenchmarkTableSizeBound(b *testing.B) {
	cfg := NewTWiCeConfig(DDR4())
	var bound int
	for i := 0; i < b.N; i++ {
		bound = cfg.TableBound()
	}
	b.ReportMetric(float64(bound), "entries")
	b.ReportMetric(float64(cfg.DRAM.RowsPerBank)/float64(bound), "reduction_x")
}

// BenchmarkSeparatedTableSizing regenerates the §6.2 sub-table split and the
// storage saving it buys.
func BenchmarkSeparatedTableSizing(b *testing.B) {
	cfg := NewTWiCeConfig(DDR4())
	var narrow, wide int
	for i := 0; i < b.N; i++ {
		narrow, wide = cfg.SeparatedSizing()
	}
	a := AreaModel(cfg)
	uniform := (narrow + wide) * a.BitsPerWide / 8
	b.ReportMetric(float64(narrow), "narrow_entries")
	b.ReportMetric(float64(wide), "wide_entries")
	b.ReportMetric(100*(1-float64(a.TableBytes)/float64(uniform)), "saving_pct")
}

// BenchmarkAreaOverhead regenerates the §7.1 storage figure (~2.7-2.9 KB of
// table per 1 GB DRAM bank).
func BenchmarkAreaOverhead(b *testing.B) {
	cfg := NewTWiCeConfig(DDR4())
	var a Area
	for i := 0; i < b.N; i++ {
		a = AreaModel(cfg)
	}
	b.ReportMetric(a.BytesPerGB/1024, "KB_per_GB")
	b.ReportMetric(float64(a.SBIndicatorBytes), "sb_bytes")
}

// --- Ablations: the design choices DESIGN.md calls out. ---

// BenchmarkAblationThreshold sweeps thRH: protection margin versus table
// size versus ARR rate (§4.3's thRH ≤ Nth/4 trade-off).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, thRH := range []int{256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("thRH=%d", thRH), func(b *testing.B) {
			s := benchScale()
			s.ThRH, s.NTh = thRH, 4*thRH
			cfg := s.MachineConfig()
			for i := 0; i < b.N; i++ {
				res, def := runNamed(b, s, cfg, "S3", "TWiCe")
				b.ReportMetric(100*res.Counters.AdditionalACTRatio(), "extra_act_pct")
				b.ReportMetric(float64(def.(*core.TWiCe).Config().TableBound()), "table_entries")
			}
		})
	}
}

// BenchmarkAblationPruneInterval sweeps the pruning interval (PI = k·tREFI):
// longer intervals mean fewer table updates but more counters.
func BenchmarkAblationPruneInterval(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("PIx%d", k), func(b *testing.B) {
			cfg := NewTWiCeConfig(DDR4())
			cfg.PruneEvery = k
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			var bound int
			for i := 0; i < b.N; i++ {
				bound = cfg.TableBound()
			}
			b.ReportMetric(float64(bound), "table_entries")
			b.ReportMetric(float64(cfg.ThPI()), "thPI")
		})
	}
}

// BenchmarkAblationTableOrg compares the three table organizations on an
// identical attack stream: identical protection, different energy paths.
func BenchmarkAblationTableOrg(b *testing.B) {
	s := benchScale()
	cfg := s.MachineConfig()
	for _, dname := range []string{"TWiCe-fa", "TWiCe", "TWiCe-sep"} {
		b.Run(dname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, def := runNamed(b, s, cfg, "S3", dname)
				tw := def.(*core.TWiCe)
				bd := Table3Energy().Aggregate(res.Counters, tw.Ops(), tw.Config().Org, cfg.DRAM.BanksPerRank)
				b.ReportMetric(100*bd.CountOverhead(), "count_energy_pct")
				b.ReportMetric(float64(res.Counters.Detections), "detections")
			}
		})
	}
}

// BenchmarkAblationBlastRadius scales the disturbance radius (§3.2 notes
// thresholds tighten as technology scales): TWiCe with radius-2 ARRs.
func BenchmarkAblationBlastRadius(b *testing.B) {
	s := benchScale()
	for _, radius := range []int{1, 2} {
		b.Run(fmt.Sprintf("radius=%d", radius), func(b *testing.B) {
			cfg := s.MachineConfig()
			cfg.DRAM.BlastRadius = radius
			cfg.MC = mc.NewConfig(cfg.DRAM)
			for i := 0; i < b.N; i++ {
				res, _ := runNamed(b, s, cfg, "S3", "TWiCe")
				b.ReportMetric(100*res.Counters.AdditionalACTRatio(), "extra_act_pct")
				b.ReportMetric(float64(len(res.Flips)), "flips")
			}
		})
	}
}

// BenchmarkAblationSuccessor compares TWiCe against Graphene (the MICRO'20
// follow-on built on a Misra-Gries summary) at the same detection threshold:
// same deterministic protection, different state cost.
func BenchmarkAblationSuccessor(b *testing.B) {
	s := benchScale()
	cfg := s.MachineConfig()
	for _, dname := range []string{"TWiCe", "Graphene"} {
		b.Run(dname, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _ := runNamed(b, s, cfg, "S3", dname)
				b.ReportMetric(100*res.Counters.AdditionalACTRatio(), "extra_act_pct")
				b.ReportMetric(float64(res.Counters.Detections), "detections")
				b.ReportMetric(float64(len(res.Flips)), "flips")
			}
			// State cost at the paper scale for the comparison headline.
			ccfg := core.NewConfig(dram.DDR4_2400())
			if dname == "TWiCe" {
				b.ReportMetric(float64(ccfg.TableBound()), "paper_entries")
			} else {
				b.ReportMetric(float64(graphene.NewConfig(dram.DDR4_2400(), 32768).Entries), "paper_entries")
			}
		})
	}
}

// --- Microbenchmarks of the core data structures. ---

func benchCoreConfig() core.Config {
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank = 1, 1, 1
	p.BankGroups = 1
	return core.NewConfig(p)
}

// BenchmarkTWiCeOnActivate measures the per-ACT cost of each organization.
func BenchmarkTWiCeOnActivate(b *testing.B) {
	for _, org := range []core.Org{core.FA, core.PA, core.Separated} {
		b.Run(org.String(), func(b *testing.B) {
			cfg := benchCoreConfig()
			cfg.Org = org
			tw, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			bank := dram.BankID{}
			maxact := cfg.MaxACT()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tw.OnActivate(bank, i%512, 0)
				if i%maxact == maxact-1 {
					tw.OnRefreshTick(bank, 0)
				}
			}
		})
	}
}

// BenchmarkTWiCePrune measures the prune pass over a loaded table.
func BenchmarkTWiCePrune(b *testing.B) {
	cfg := benchCoreConfig()
	tw, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bank := dram.BankID{}
	for r := 0; r < cfg.MaxACT(); r++ {
		tw.OnActivate(bank, r, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.OnRefreshTick(bank, 0)
	}
}

// BenchmarkAblationPagePolicy compares the three row-buffer policies on the
// multi-core mix (Table 4 uses minimalist-open).
func BenchmarkAblationPagePolicy(b *testing.B) {
	s := benchScale()
	for _, pol := range []mc.PagePolicy{mc.OpenPage, mc.ClosedPage, mc.MinimalistOpen} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := s.MachineConfig()
			cfg.MC.PagePolicy = pol
			for i := 0; i < b.N; i++ {
				res, _ := runNamed(b, s, cfg, "mix-high", "TWiCe")
				b.ReportMetric(res.Counters.AvgLatency().Nanoseconds(), "avg_lat_ns")
				b.ReportMetric(100*res.Counters.RowHitRate(), "row_hit_pct")
				b.ReportMetric(float64(res.Counters.NormalACTs), "acts")
			}
		})
	}
}

// runNamed runs one catalogue workload under one catalogue defense on cfg
// for the cell budget the experiment grids give that workload, and returns
// the result with the defense it built.
func runNamed(b *testing.B, s experiments.Scale, cfg sim.Config, wname, dname string) (*sim.Result, defense.Defense) {
	b.Helper()
	w, err := s.NewWorkload(wname, experiments.AttackRow)
	if err != nil {
		b.Fatal(err)
	}
	def, err := s.NewDefense(dname, cfg.DRAM)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(cfg, def, w, sim.Limits{MaxRequests: s.CellRequests(wname), MaxTime: 10 * clock.Second})
	if err != nil {
		b.Fatal(err)
	}
	return res, def
}
