// Command sweep runs one-dimensional design-space sweeps — the ablations
// DESIGN.md calls out — and writes the results as CSV for plotting.
//
// Usage:
//
//	sweep -param thrh -values 256,512,1024,2048            # detection threshold
//	sweep -param para-p -values 0.0005,0.001,0.002,0.004   # PARA probability
//	sweep -param prune-every -values 1,2,4,8               # TWiCe PI stretch
//	sweep -param blast-radius -values 1,2                  # disturbance radius
//
// Every sweep runs the S3 attack on the quick-scale machine and reports the
// additional-ACT ratio, detections, flips, and (for TWiCe sweeps) the
// provable table bound at each point. Points are independent simulations, so
// -parallel runs them concurrently; CSV rows are emitted in value order
// regardless of which point finishes first. -progress reports completed/total
// points and an ETA on stderr; -telemetry writes each point's event totals,
// histograms, and occupancy series as <dir>/sweep.csv and <dir>/sweep.jsonl;
// -timeline writes every point's simulated-time schedule into one Chrome
// trace-event file (one process per point × channel; open at
// ui.perfetto.dev), with -timeline-windows K keeping only the last K tREFI
// windows per point. None of these flags changes the stdout CSV by a byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/para"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func main() {
	param := flag.String("param", "thrh", "swept parameter: thrh, para-p, prune-every, blast-radius")
	values := flag.String("values", "", "comma-separated sweep values")
	requests := flag.Int64("requests", 150000, "demand requests per point")
	seed := flag.Int64("seed", 1, "simulation seed")
	par := flag.Int("parallel", 0, "worker goroutines across sweep points (0 = all CPUs, 1 = serial)")
	progressFlag := flag.Bool("progress", false, "report completed/total sweep points and ETA on stderr")
	telemetryDir := flag.String("telemetry", "", "directory to write per-point telemetry CSV/JSONL into")
	timelineFile := flag.String("timeline", "", "write a Chrome trace-event timeline of every sweep point to this file")
	timelineWindows := flag.Int("timeline-windows", 0, "flight-recorder mode: keep only the last K tREFI windows per point (0 = full trace)")
	flag.Parse()
	if *values == "" {
		fail(fmt.Errorf("-values is required"))
	}

	s := experiments.QuickScale()
	s.Seed = *seed
	points := strings.Split(*values, ",")

	pool := parallel.Runner{Workers: *par}
	if *progressFlag {
		p := probe.NewProgress(os.Stderr, "sweep", time.Now)
		pool.OnDone = p.Update
		defer p.Finish()
	}
	var col *probe.Collector
	if *telemetryDir != "" {
		col = &probe.Collector{}
		col.Start(len(points))
	}
	var grid *timeline.Grid
	if *timelineFile != "" {
		grid = &timeline.Grid{Config: timeline.Config{Windows: *timelineWindows}}
		grid.Start(len(points))
	}
	lines, err := parallel.Map(pool, len(points), func(_, i int) (string, error) {
		raw := strings.TrimSpace(points[i])
		var rec *probe.Recorder
		if col != nil {
			rec = probe.NewRecorder(col.Config)
		} else if grid != nil {
			rec = probe.NewRecorder(probe.Config{}) // sink carrier only
		}
		var tl *timeline.Recorder
		if grid != nil && rec != nil {
			tl = grid.NewRecorder()
			rec.SetSink(tl)
		}
		line, err := runPoint(*param, raw, s, *requests, *seed, rec)
		if err != nil {
			return "", err
		}
		if col != nil && rec != nil {
			col.Record(i, probe.CellLabel{Workload: "S3", Defense: *param + "=" + raw}, rec.Snapshot())
		}
		if tl != nil {
			grid.Record(i, "S3", *param+"="+raw, tl)
		}
		return line, nil
	})
	if err != nil {
		fail(err)
	}
	writeTelemetry(*telemetryDir, col)
	writeTimeline(*timelineFile, grid)
	fmt.Println("param,value,extra_act_ratio,detections,arrs,nacks,flips,table_entries")
	for _, line := range lines {
		fmt.Print(line)
	}
}

// writeTelemetry exports the collected per-point series as sweep.csv and
// sweep.jsonl in dir (no-op without -telemetry).
func writeTelemetry(dir string, col *probe.Collector) {
	if col == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	writeOne := func(path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := write(f); err != nil {
			_ = f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	writeOne(dir+"/sweep.csv", func(f *os.File) error { return col.WriteCSV(f) })
	writeOne(dir+"/sweep.jsonl", func(f *os.File) error { return col.WriteJSONL(f) })
	fmt.Fprintf(os.Stderr, "sweep: wrote %s/sweep.csv and %s/sweep.jsonl\n", dir, dir)
}

// writeTimeline exports the per-point trace grid as one Chrome trace-event
// file (no-op without -timeline).
func writeTimeline(path string, grid *timeline.Grid) {
	if grid == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := grid.WriteTrace(f); err != nil {
		_ = f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: wrote %s — open it at https://ui.perfetto.dev\n", path)
}

// runPoint simulates one sweep point and returns its CSV row (with trailing
// newline). Each point builds its own config, defense, and workload, so
// points share no mutable state and may run on any worker. rec, when
// non-nil, records the point's telemetry.
func runPoint(param, raw string, s experiments.Scale, requests, seed int64, rec *probe.Recorder) (string, error) {
	cfg := sim.DefaultConfig(1)
	cfg.DRAM.TREFW = s.TREFW
	cfg.DRAM.NTh = s.NTh
	cfg.Seed = seed

	var def defense.Defense
	tableEntries := 0
	switch param {
	case "thrh":
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", err
		}
		cfg.DRAM.NTh = 4 * v // keep the config sound at every point
		ccfg := core.NewConfig(cfg.DRAM)
		ccfg.ThRH = v
		tw, err := core.New(ccfg)
		if err != nil {
			return "", err
		}
		def, tableEntries = tw, ccfg.TableBound()
	case "para-p":
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", err
		}
		pa, err := para.New(v, cfg.DRAM, seed+3)
		if err != nil {
			return "", err
		}
		def = pa
	case "prune-every":
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", err
		}
		ccfg := core.NewConfig(cfg.DRAM)
		ccfg.ThRH = s.ThRH
		ccfg.PruneEvery = v
		tw, err := core.New(ccfg)
		if err != nil {
			return "", err
		}
		def, tableEntries = tw, ccfg.TableBound()
	case "blast-radius":
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", err
		}
		cfg.DRAM.BlastRadius = v
		ccfg := core.NewConfig(cfg.DRAM)
		ccfg.ThRH = s.ThRH
		tw, err := core.New(ccfg)
		if err != nil {
			return "", err
		}
		def, tableEntries = tw, ccfg.TableBound()
	default:
		return "", fmt.Errorf("unknown parameter %q", param)
	}

	cfg.MC = mc.NewConfig(cfg.DRAM)
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return "", err
	}
	m, err := sim.NewMachine(cfg, def, workload.S3(amap, cfg.DRAM, 5000))
	if err != nil {
		return "", err
	}
	m.SetRecorder(rec)
	res, err := m.Run(sim.Limits{MaxRequests: requests, MaxTime: 10 * clock.Second})
	if err != nil {
		return "", err
	}
	c := res.Counters
	return fmt.Sprintf("%s,%s,%.6g,%d,%d,%d,%d,%d\n",
		param, raw, c.AdditionalACTRatio(), c.Detections, c.ARRs, c.Nacks, len(res.Flips), tableEntries), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
