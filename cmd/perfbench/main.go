// Command perfbench measures the repository's performance envelope and
// writes it to a JSON file (BENCH_7.json by default) so successive PRs can
// track the trajectory. Earlier trajectory points (BENCH_2.json,
// BENCH_3.json, ...) are never overwritten: each measurement generation
// writes its own file.
//
// Measurements:
//
//   - the single-run hot path: ns/op, allocs/op, and B/op for an S3 attack
//     run end to end through the event loop (the same body as
//     BenchmarkSimRunAllocs in internal/sim), machine built fresh per op;
//   - the same run through a recycled sim.CellRunner (the grid-cell mode:
//     BenchmarkSimRunReusedAllocs), where the machine is constructed once
//     and reset in place per op — the bytes/op delta is the per-cell
//     construction cost reuse eliminates;
//   - the recycled run again with a telemetry recorder attached
//     (sim_run_s3_probed): the probed-over-detached ns/op ratio is the
//     observability tax, which the probe design keeps to the nil checks
//     plus histogram increments;
//   - the scheduler in isolation: ns/step and allocs/step for a controller
//     held at fixed read-queue depths (8, 32, 64), timing channel.step's
//     indexed candidate selection without workload-generation noise —
//     the leg that tracks the indexed-scheduler rework directly;
//   - grid throughput: cells/sec for the Figure 7(b) grid executed serially
//     (Parallel = 1) and on the worker pool, with the speedup and the real
//     GOMAXPROCS/worker count recorded so a degenerate single-CPU
//     measurement (BENCH_2's speedup of 1.016 at gomaxprocs 1) is visible
//     as such instead of reading like an engine defect.
//
// Wall-clock timing is inherently nondeterministic; that is fine here
// because the numbers are diagnostics, never simulation inputs (twicelint's
// nondeterm rule stays scoped to internal/ for exactly this split).
//
// Usage:
//
//	perfbench [-out BENCH_7.json] [-requests 40000] [-parallel 0]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/rcd"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// hotPath mirrors internal/sim's BenchmarkSimRunAllocs: a single-core S3
// attack under quick-scale TWiCe, bounded by the request budget.
type hotPath struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Requests    int64   `json:"requests_per_op"`
	NsPerReq    float64 `json:"ns_per_request"`
}

// gridThroughput compares the Figure 7(b) grid run serially and on the
// worker pool.
type gridThroughput struct {
	Cells           int     `json:"cells"`
	RequestsPerCell int64   `json:"requests_per_cell"`
	Workers         int     `json:"workers"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	SerialCellsSec  float64 `json:"serial_cells_per_sec"`
	ParCellsSec     float64 `json:"parallel_cells_per_sec"`
	Speedup         float64 `json:"speedup"`
}

// schedLeg is one fixed-depth measurement of channel.step in isolation: a
// controller is kept topped up to Depth queued reads while the event loop
// pumps it, so ns/step times candidate selection plus command execution and
// allocs/step pins the hot path's steady-state allocation count (zero).
type schedLeg struct {
	Depth         int     `json:"queue_depth"`
	StepsPerOp    int64   `json:"steps_per_op"`
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
}

type report struct {
	GOMAXPROCS    int            `json:"gomaxprocs"`
	HotPath       hotPath        `json:"sim_run_s3"`
	HotPathReused hotPath        `json:"sim_run_s3_reused"`
	HotPathProbed hotPath        `json:"sim_run_s3_probed"`
	BytesRatio    float64        `json:"fresh_over_reused_bytes"`
	ProbeOverhead float64        `json:"probed_over_detached_ns"`
	Scheduler     []schedLeg     `json:"scheduler_step"`
	Figure7b      gridThroughput `json:"figure7b_grid"`
}

func main() {
	out := flag.String("out", "BENCH_7.json", "output JSON file")
	requests := flag.Int64("requests", 40000, "demand requests per Figure 7(b) cell")
	par := flag.Int("parallel", 0, "workers for the parallel grid leg (0 = all CPUs)")
	flag.Parse()

	rep := report{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	fmt.Println("perfbench: hot path (S3 through the event loop, fresh machine per op)...")
	hp, err := benchHotPath(false, false)
	if err != nil {
		fail(err)
	}
	rep.HotPath = hp
	fmt.Printf("  %d ns/op, %d allocs/op, %d B/op (%d requests, %.1f ns/request)\n",
		hp.NsPerOp, hp.AllocsPerOp, hp.BytesPerOp, hp.Requests, hp.NsPerReq)

	fmt.Println("perfbench: hot path, recycled machine (grid-cell mode)...")
	rp, err := benchHotPath(true, false)
	if err != nil {
		fail(err)
	}
	rep.HotPathReused = rp
	if rp.BytesPerOp > 0 {
		rep.BytesRatio = float64(hp.BytesPerOp) / float64(rp.BytesPerOp)
	}
	fmt.Printf("  %d ns/op, %d allocs/op, %d B/op (%.0fx fewer bytes than fresh)\n",
		rp.NsPerOp, rp.AllocsPerOp, rp.BytesPerOp, rep.BytesRatio)

	fmt.Println("perfbench: hot path, recycled machine with telemetry probes attached...")
	pp, err := benchHotPath(true, true)
	if err != nil {
		fail(err)
	}
	rep.HotPathProbed = pp
	if rp.NsPerOp > 0 {
		rep.ProbeOverhead = float64(pp.NsPerOp) / float64(rp.NsPerOp)
	}
	fmt.Printf("  %d ns/op, %d allocs/op, %d B/op (%.3fx the detached run)\n",
		pp.NsPerOp, pp.AllocsPerOp, pp.BytesPerOp, rep.ProbeOverhead)

	fmt.Println("perfbench: scheduler step at fixed queue depths...")
	for _, depth := range []int{8, 32, 64} {
		leg, err := benchScheduler(depth)
		if err != nil {
			fail(err)
		}
		rep.Scheduler = append(rep.Scheduler, leg)
		fmt.Printf("  depth %2d: %.1f ns/step, %.3f allocs/step (%d steps/op)\n",
			leg.Depth, leg.NsPerStep, leg.AllocsPerStep, leg.StepsPerOp)
	}

	fmt.Println("perfbench: Figure 7(b) grid, serial vs parallel...")
	gt, err := benchGrid(*requests, *par)
	if err != nil {
		fail(err)
	}
	rep.Figure7b = gt
	fmt.Printf("  %d cells × %d requests: serial %.2fs (%.2f cells/s), parallel %.2fs (%.2f cells/s), %.2fx on %d workers\n",
		gt.Cells, gt.RequestsPerCell, gt.SerialSeconds, gt.SerialCellsSec,
		gt.ParallelSeconds, gt.ParCellsSec, gt.Speedup, gt.Workers)
	if rep.GOMAXPROCS == 1 {
		fmt.Println("  note: gomaxprocs is 1 — the speedup leg is degenerate on this host")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("perfbench: wrote %s\n", *out)
}

// benchHotPath times the single-run event loop with allocation accounting.
// With reuse set, one machine is constructed up front and recycled across
// ops through a sim.CellRunner, exactly as the experiment grids recycle one
// machine per worker. With probed set, each op additionally builds and
// attaches a fresh telemetry recorder — the same per-cell pattern the
// -telemetry grids use — so the measured delta is the full observability
// cost, recorder construction included.
func benchHotPath(reuse, probed bool) (hotPath, error) {
	const requests = 20000
	cfg := sim.DefaultConfig(1)
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return hotPath{}, err
	}
	newTWiCe := func() (*core.TWiCe, error) {
		ccfg := core.NewConfig(cfg.DRAM)
		ccfg.ThRH = 512
		return core.New(ccfg)
	}
	lim := sim.Limits{MaxRequests: requests, MaxTime: 10 * clock.Second}
	var runner *sim.CellRunner
	if reuse {
		runner = sim.NewCellRunner(cfg)
		tw, err := newTWiCe()
		if err != nil {
			return hotPath{}, err
		}
		// Pay for machine construction outside the measured region.
		if _, err := runner.Run(tw, workload.S3(amap, cfg.DRAM, 5000),
			sim.Limits{MaxRequests: 100, MaxTime: 10 * clock.Second}); err != nil {
			return hotPath{}, err
		}
	}
	var served int64
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tw, err := newTWiCe()
			if err != nil {
				runErr = err
				return
			}
			w := workload.S3(amap, cfg.DRAM, 5000)
			var r *sim.Result
			if reuse {
				var rec *probe.Recorder
				if probed {
					rec = probe.NewRecorder(probe.Config{})
				}
				runner.SetRecorder(rec)
				r, err = runner.Run(tw, w, lim)
			} else {
				r, err = sim.Run(cfg, tw, w, lim)
			}
			if err != nil {
				runErr = err
				return
			}
			served = r.Counters.RequestsServed
		}
	})
	if runErr != nil {
		return hotPath{}, runErr
	}
	hp := hotPath{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Requests:    served,
	}
	if served > 0 {
		hp.NsPerReq = float64(res.NsPerOp()) / float64(served)
	}
	return hp, nil
}

// benchScheduler pumps one controller's event loop while keeping its read
// queue topped up to depth, so every step selects among ~depth candidates.
// Requests come from a recycled free list and readdress uniformly over the
// banks and a small row set (a mix of row hits, misses, and conflicts).
// Steps are counted with System.Steps across the timed region, making
// ns/step and allocs/step exact per-step averages.
func benchScheduler(depth int) (schedLeg, error) {
	p := dram.DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 2
	p.BanksPerRank = 8
	p.RowsPerBank = 1 << 10
	cfg := mc.NewConfig(p)
	cfg.QueueDepth = 2 * depth
	dev, err := dram.NewDevice(p, nil)
	if err != nil {
		return schedLeg{}, err
	}
	sys, err := mc.New(cfg, dev, rcd.New(p, defense.Nop{}), &stats.Counters{})
	if err != nil {
		return schedLeg{}, err
	}
	free := make([]*mc.Request, 0, 2*depth+1)
	sys.SetRelease(func(q *mc.Request) { free = append(free, q) })
	for i := 0; i < 2*depth+1; i++ {
		free = append(free, &mc.Request{})
	}
	inflight := 0
	onDone := func(clock.Time) { inflight-- }
	rng := rand.New(rand.NewSource(7))
	now := clock.Time(0)
	pump := func() {
		for inflight < depth && len(free) > 0 {
			q := free[len(free)-1]
			free = free[:len(free)-1]
			*q = mc.Request{
				ID: sys.NewID(),
				Addr: dram.Addr{
					Rank: rng.Intn(p.RanksPerChannel),
					Bank: rng.Intn(p.BanksPerRank),
					Row:  rng.Intn(16),
					Col:  rng.Intn(p.ColumnsPerRow),
				},
				Core: rng.Intn(4),
				Done: onDone,
			}
			if !sys.Enqueue(q, now) {
				free = append(free, q)
				break
			}
			inflight++
		}
		for i := 0; i < 8; i++ {
			now = sys.NextEvent()
			sys.Advance(now)
		}
	}
	for i := 0; i < 500; i++ { // warm every queue and index to steady state
		pump()
	}
	var steps int64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		start := sys.Steps()
		for i := 0; i < b.N; i++ {
			pump()
		}
		steps = sys.Steps() - start
	})
	// steps holds the final (measured) benchmark run's step count.
	leg := schedLeg{Depth: depth, StepsPerOp: steps / int64(res.N)}
	if steps > 0 {
		leg.NsPerStep = float64(res.T.Nanoseconds()) / float64(steps)
		leg.AllocsPerStep = float64(res.MemAllocs) / float64(steps)
	}
	return leg, nil
}

// benchGrid times Figure 7(b) serially and on the worker pool. Both legs run
// the identical grid; the equivalence tests (internal/experiments) already
// pin that the results match byte for byte, so only timing is recorded here.
// The reported worker count is the pool size the parallel leg actually uses
// (workers capped at GOMAXPROCS when the flag is 0, and at the cell count).
func benchGrid(requests int64, workers int) (gridThroughput, error) {
	s := experiments.QuickScale()
	s.Requests = requests

	serial := s
	serial.Parallel = 1
	start := time.Now()
	cells, err := experiments.Figure7b(serial)
	if err != nil {
		return gridThroughput{}, err
	}
	serialDur := time.Since(start)

	par := s
	par.Parallel = workers
	start = time.Now()
	if _, err := experiments.Figure7b(par); err != nil {
		return gridThroughput{}, err
	}
	parDur := time.Since(start)

	gt := gridThroughput{
		Cells:           len(cells),
		RequestsPerCell: requests,
		Workers:         parallel.Runner{Workers: workers}.PoolSize(len(cells)),
		SerialSeconds:   serialDur.Seconds(),
		ParallelSeconds: parDur.Seconds(),
	}
	if serialDur > 0 {
		gt.SerialCellsSec = float64(len(cells)) / serialDur.Seconds()
	}
	if parDur > 0 {
		gt.ParCellsSec = float64(len(cells)) / parDur.Seconds()
		gt.Speedup = serialDur.Seconds() / parDur.Seconds()
	}
	return gt, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
