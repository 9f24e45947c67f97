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
	if *requests <= 0 {
		fail(fmt.Errorf("-requests %d: want > 0", *requests))
	}
	col, err := probe.NewCollector(*telemetryDir != "", *timelineFile != "", *timelineWindows)
	if err != nil {
		fail(err)
	}

	s := experiments.QuickScale()
	s.Cores = 1
	s.Seed = *seed
	points := strings.Split(*values, ",")

	pool := parallel.Runner{Workers: *par}
	if *progressFlag {
		p := probe.NewProgress(os.Stderr, "sweep", time.Now)
		pool.OnDone = p.Update
		defer p.Finish()
	}
	col.Start(len(points))
	lines, err := parallel.Map(pool, len(points), func(_, i int) (string, error) {
		raw := strings.TrimSpace(points[i])
		rec := col.NewRecorder()
		line, err := runPoint(*param, raw, s, *requests, rec)
		if err != nil {
			return "", err
		}
		col.Record(i, probe.CellLabel{Workload: "S3", Defense: *param + "=" + raw}, rec)
		return line, nil
	})
	if err != nil {
		fail(err)
	}
	paths, err := col.Export(*telemetryDir, "sweep", *timelineFile)
	if err != nil {
		fail(err)
	}
	for _, p := range paths {
		fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", p)
	}
	fmt.Println("param,value,extra_act_ratio,detections,arrs,nacks,flips,table_entries")
	for _, line := range lines {
		fmt.Print(line)
	}
}

// twiceEdits maps each TWiCe sweep parameter to its one edit of the
// point's TWiCe config, whose DRAM parameters the machine then runs on.
var twiceEdits = map[string]func(c *core.Config, v int){
	"thrh": func(c *core.Config, v int) {
		c.ThRH = v
		c.DRAM.NTh = 4 * v // keep the config sound at every point
	},
	"prune-every":  func(c *core.Config, v int) { c.PruneEvery = v },
	"blast-radius": func(c *core.Config, v int) { c.DRAM.BlastRadius = v },
}

// runPoint simulates one sweep point and returns its CSV row (with trailing
// newline). Each point builds its own config, defense, and workload, so
// points share no mutable state and may run on any worker. rec, when
// non-nil, records the point's telemetry and trace.
func runPoint(param, raw string, s experiments.Scale, requests int64, rec *probe.Recorder) (string, error) {
	cfg := s.MachineConfig()

	var def defense.Defense
	tableEntries := 0
	edit, isTWiCe := twiceEdits[param]
	switch {
	case isTWiCe:
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", err
		}
		ccfg := core.NewConfig(cfg.DRAM)
		ccfg.ThRH = s.ThRH
		edit(&ccfg, v)
		tw, err := core.New(ccfg)
		if err != nil {
			return "", err
		}
		cfg.DRAM = ccfg.DRAM
		def, tableEntries = tw, ccfg.TableBound()
	case param == "para-p":
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", err
		}
		if def, err = para.New(v, cfg.DRAM, s.Seed+3); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("unknown parameter %q", param)
	}

	// The per-point DRAM edits reach the controller too. The S3 workload
	// reads only the geometry, which no sweep parameter changes.
	cfg.MC = mc.NewConfig(cfg.DRAM)
	w, err := s.NewWorkload("S3", experiments.AttackRow)
	if err != nil {
		return "", err
	}
	m, err := sim.NewMachine(cfg, def, w)
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
