package sim

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/probe"
	"repro/internal/workload"
)

// benchConfig builds a small quick-scale machine for the hot-path
// benchmarks: 1 ms refresh window, scaled thresholds, defaults elsewhere.
func benchConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	return cfg
}

func benchDefense(b *testing.B, cfg Config) *core.TWiCe {
	b.Helper()
	ccfg := core.NewConfig(cfg.DRAM)
	ccfg.ThRH = 512
	tw, err := core.New(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	return tw
}

// BenchmarkSimRunAllocs measures the single-run hot path end to end — the
// event loop, the controller's per-step scans, and the request submit path —
// with a fresh machine per op and allocation reporting. Its bytes/op against
// BenchmarkSimRunReusedAllocs/detached is what machine recycling saves per
// grid cell. End-to-end throughput is measured by the bench/ module.
func BenchmarkSimRunAllocs(b *testing.B) {
	const requests = 20000
	cfg := benchConfig(1)
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var served int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, benchDefense(b, cfg), workload.S3(amap, cfg.DRAM, 5000),
			Limits{MaxRequests: requests, MaxTime: 10 * clock.Second})
		if err != nil {
			b.Fatal(err)
		}
		served = res.Counters.RequestsServed
	}
	b.ReportMetric(float64(served), "requests/op")
}

// BenchmarkSimRunReusedAllocs measures the grid-cell hot path: the same S3
// run as BenchmarkSimRunAllocs, but through a CellRunner that recycles one
// machine across ops the way the experiment grids recycle one machine per
// worker. The detached case's delta against BenchmarkSimRunAllocs is the
// per-cell cost of machine construction (device disturb arrays, caches,
// controller queues) that reuse eliminates. The probed case attaches a fresh
// probe.Recorder per op, as the -telemetry grids attach one per cell, so its
// delta against detached is the whole observability tax, recorder
// construction included.
func BenchmarkSimRunReusedAllocs(b *testing.B) {
	for _, probed := range []bool{false, true} {
		name := "detached"
		if probed {
			name = "probed"
		}
		b.Run(name, func(b *testing.B) {
			const requests = 20000
			cfg := benchConfig(1)
			amap, err := mc.NewAddrMap(cfg.DRAM)
			if err != nil {
				b.Fatal(err)
			}
			runner := NewCellRunner(cfg)
			// Pay for machine construction before the timer starts.
			if _, err := runner.Run(benchDefense(b, cfg), workload.S3(amap, cfg.DRAM, 5000),
				Limits{MaxRequests: 100, MaxTime: 10 * clock.Second}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var served int64
			for i := 0; i < b.N; i++ {
				var rec *probe.Recorder
				if probed {
					rec = probe.NewRecorder(probe.Config{})
				}
				runner.SetRecorder(rec)
				res, err := runner.Run(benchDefense(b, cfg), workload.S3(amap, cfg.DRAM, 5000),
					Limits{MaxRequests: requests, MaxTime: 10 * clock.Second})
				if err != nil {
					b.Fatal(err)
				}
				served = res.Counters.RequestsServed
			}
			b.ReportMetric(float64(served), "requests/op")
		})
	}
}

// BenchmarkSimRunCachedAllocs exercises the cache-fronted path (mix-blend
// through the full hierarchy), where demand fills, prefetches, and
// writebacks all cross the submit path.
func BenchmarkSimRunCachedAllocs(b *testing.B) {
	const requests = 20000
	cfg := benchConfig(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workload.MixBlend(2, uint64(cfg.DRAM.TotalCapacityBytes()), 1)
		if _, err := Run(cfg, benchDefense(b, cfg), w,
			Limits{MaxRequests: requests, MaxTime: 10 * clock.Second}); err != nil {
			b.Fatal(err)
		}
	}
}
