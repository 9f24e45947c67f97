package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/workload"
)

// TestTelemetryRecordsEvents runs the quick-scale S3 attack with a recorder
// attached and checks that every probe family fired: demand ACTs, refreshes,
// queue traffic, TWiCe prune ticks with a nonzero occupancy trajectory, and
// the machine-registered gauges.
func TestTelemetryRecordsEvents(t *testing.T) {
	cfg := scaledConfig()
	m, err := NewMachine(cfg, scaledTWiCe(t, cfg, core.PA), s3Workload(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewRecorder()
	m.SetRecorder(rec)
	if _, err := m.Run(Limits{MaxRequests: 20000, MaxTime: 20 * clock.Millisecond}); err != nil {
		t.Fatal(err)
	}

	tot := rec.Totals()
	if tot.ACTs == 0 || tot.Refreshes == 0 || tot.Enqueues == 0 || tot.Dequeues == 0 {
		t.Errorf("core event families missing: %+v", tot)
	}
	if tot.ARRs == 0 || tot.ARRsQueued == 0 {
		t.Errorf("S3 under TWiCe must trigger ARRs: %+v", tot)
	}
	if tot.TableTicks == 0 {
		t.Errorf("no prune ticks recorded: %+v", tot)
	}
	if rec.MaxOccupancy() <= 0 {
		t.Error("max table occupancy not observed")
	}
	if len(rec.OccupancySeries()) == 0 {
		t.Error("occupancy trajectory empty")
	}

	s := rec.Snapshot()
	names := map[string]bool{}
	for _, g := range s.Gauges { //twicelint:ordered — building a set, not iterating one
		names[g.Name] = true
		if len(g.Samples) == 0 {
			t.Errorf("gauge %s has no samples", g.Name)
		}
	}
	if !names["disturb_high_water"] || !names["requests_served"] {
		t.Errorf("machine gauges missing: %+v", s.Gauges)
	}
	for _, h := range s.Histograms {
		if h.Name == "latency_ps" && h.Total == 0 {
			t.Error("latency histogram empty")
		}
	}
}

// TestTelemetryOccupancyBound pins the §4.4 claim on the real DDR4-2400
// machine at the paper's parameters (thRH = 32768, tREFW = 64 ms): the
// per-bank TWiCe table occupancy observed after every prune pass stays within
// the derived TableBound. That is 556 entries, which a legal stream reaches
// exactly (core's TestTableBoundNeverExceeded), so the paper's 553 is not a
// ceiling for this engine.
func TestTelemetryOccupancyBound(t *testing.T) {
	cfg := DefaultConfig(1)
	ccfg := core.NewConfig(cfg.DRAM)
	tw, err := core.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, tw, s3Workload(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewRecorder()
	m.SetRecorder(rec)
	if _, err := m.Run(Limits{MaxRequests: 60000, MaxTime: 2 * clock.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if len(rec.OccupancySeries()) == 0 {
		t.Fatal("no occupancy samples — the trajectory test observed nothing")
	}
	if got, bound := rec.MaxOccupancy(), ccfg.TableBound(); got <= 0 || got > bound {
		t.Errorf("max table occupancy = %d, want in (0, %d]", got, bound)
	}
}

// TestTelemetryReuseMatchesFresh extends the machine-recycling contract to
// telemetry: a recorder attached to a recycled machine must capture exactly
// what a recorder on a fresh machine captures — equal snapshots and
// byte-identical exports.
func TestTelemetryReuseMatchesFresh(t *testing.T) {
	cfg := scaledConfig()
	lim := Limits{MaxRequests: 8000, MaxTime: 20 * clock.Millisecond}

	runner := NewCellRunner(cfg)
	// First cell dirties the machine (and leaves a stale defense behind).
	warm := probe.NewRecorder()
	runner.SetRecorder(warm)
	if _, err := runner.Run(scaledTWiCe(t, cfg, core.PA), s3Workload(t, cfg), lim); err != nil {
		t.Fatal(err)
	}
	// Second cell on the recycled machine, fresh recorder.
	reused := probe.NewRecorder()
	runner.SetRecorder(reused)
	if _, err := runner.Run(scaledTWiCe(t, cfg, core.Separated), s3Workload(t, cfg), lim); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewMachine(cfg, scaledTWiCe(t, cfg, core.Separated), s3Workload(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	frRec := probe.NewRecorder()
	fresh.SetRecorder(frRec)
	if _, err := fresh.Run(lim); err != nil {
		t.Fatal(err)
	}

	reSnap, frSnap := reused.Snapshot(), frRec.Snapshot()
	if !reflect.DeepEqual(reSnap, frSnap) {
		t.Errorf("telemetry snapshots diverge:\n reused %+v\n fresh  %+v", reSnap.Events, frSnap.Events)
	}
	label := probe.CellLabel{Workload: "S3", Defense: "TWiCe-sep"}
	reCSV, reJSON := exportCell(t, label, reused)
	frCSV, frJSON := exportCell(t, label, frRec)
	if !bytes.Equal(reCSV, frCSV) {
		t.Error("telemetry CSV differs between recycled and fresh machines")
	}
	if !bytes.Equal(reJSON, frJSON) {
		t.Error("telemetry JSONL differs between recycled and fresh machines")
	}
}

// TestDetachedRecorderLeavesResultsUntouched pins that execution knobs are
// not semantic: attaching a probe recorder, attaching one that also records
// a trace, and running on a recycled machine must each leave the whole
// Result — counters, sim time, flips, RCD stats, per-core detection
// attribution, and L3 statistics — exactly as a bare run on a fresh machine
// leaves it. The -parallel knob is covered by TestParallelSerialEquivalence
// in internal/experiments.
func TestDetachedRecorderLeavesResultsUntouched(t *testing.T) {
	cfg := scaledConfig()
	lim := Limits{MaxRequests: 6000, MaxTime: 20 * clock.Millisecond}
	cells := []struct {
		name string
		w    func(t *testing.T) workload.Workload
	}{
		// S3 under TWiCe detects and issues ARRs; mcf runs through the caches.
		{"s3", func(t *testing.T) workload.Workload { return s3Workload(t, cfg) }},
		{"mcf", func(t *testing.T) workload.Workload {
			w, err := workload.SPECRate("mcf", 1, uint64(cfg.DRAM.TotalCapacityBytes()), 3)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
	}
	for i, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			bare, err := Run(cfg, scaledTWiCe(t, cfg, core.PA), c.w(t), lim)
			if err != nil {
				t.Fatal(err)
			}
			probed := func(rec *probe.Recorder) *Result {
				m, err := NewMachine(cfg, scaledTWiCe(t, cfg, core.PA), c.w(t))
				if err != nil {
					t.Fatal(err)
				}
				m.SetRecorder(rec)
				res, err := m.Run(lim)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			col, err := probe.NewCollector(false, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			traced := col.NewRecorder()

			// The recycled runner first runs the other cell, so the measured
			// run starts from a dirtied machine.
			runner := NewCellRunner(cfg)
			if _, err := runner.Run(scaledTWiCe(t, cfg, core.FA), cells[1-i].w(t), lim); err != nil {
				t.Fatal(err)
			}
			recycled, err := runner.Run(scaledTWiCe(t, cfg, core.PA), c.w(t), lim)
			if err != nil {
				t.Fatal(err)
			}

			variants := []struct {
				name string
				res  *Result
			}{
				{"probe recorder", probed(probe.NewRecorder())},
				{"probe recorder with trace", probed(traced)},
				{"recycled CellRunner", recycled},
			}
			for _, v := range variants {
				if !reflect.DeepEqual(bare, v.res) {
					t.Errorf("%s changes the result:\n bare %+v\n got  %+v", v.name, bare, v.res)
				}
			}
			if parseTrace(t, exportTrace(t, probe.CellLabel{}, traced)).OtherData.Total == 0 {
				t.Error("trace recorded no events; the tracing case is not exercised")
			}
		})
	}
}
