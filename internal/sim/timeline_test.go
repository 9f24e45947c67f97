package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/probe"
	"repro/internal/workload"
)

// twoChannelConfig builds the quick-scale config on two DRAM channels with
// two cores, so the trace carries more than one channel's tracks.
func twoChannelConfig() Config {
	cfg := DefaultConfig(2)
	cfg.DRAM.Channels = 2
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	return cfg
}

// s1Workload spreads uniformly random traffic across every channel.
func s1Workload(t *testing.T, cfg Config) workload.Workload {
	t.Helper()
	m, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return workload.S1(m, cfg.DRAM, 11)
}

// traceDoc is the parsed form of a Chrome trace-event export: the header's
// event accounting and every trace event's name, phase, timestamp and
// prune count.
type traceDoc struct {
	OtherData struct {
		Total          int64 `json:"total_events,string"`
		Dropped        int64 `json:"dropped_events,string"`
		DroppedWindows int64 `json:"dropped_windows,string"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Args struct {
			Pruned int64 `json:"pruned"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// parseTrace decodes a trace export, failing the test on invalid JSON.
func parseTrace(t *testing.T, data []byte) traceDoc {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid trace-event JSON: %v", err)
	}
	return doc
}

// exportTrace renders one recorder's trace as a one-cell collector
// exports it.
func exportTrace(t *testing.T, label probe.CellLabel, rec *probe.Recorder) []byte {
	t.Helper()
	var col probe.Collector
	col.Start(1)
	col.Record(0, label, rec)
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retained counts the recorder events a trace holds — every non-metadata
// entry except the "prune" instant that accompanies a twice_occupancy
// counter sample of the same prune pass — and the span of tREFI windows
// they fall in.
func (d traceDoc) retained(trefi clock.Time) (n, first, last int64) {
	first = math.MaxInt64
	for _, e := range d.TraceEvents {
		if e.Ph == "M" || (e.Ph == "i" && e.Name == "prune") {
			continue
		}
		n++
		w := int64(clock.Time(math.Round(e.Ts*1e6)) / trefi)
		first, last = min(first, w), max(last, w)
	}
	return n, first, last
}

// runTraceCell runs one TWiCe cell of the given table organization with a
// recorder from NewCollector(telemetry, true, windows) attached and returns
// the exported trace and the recorder's totals.
func runTraceCell(t *testing.T, cfg Config, org core.Org, w workload.Workload, lim Limits, telemetry bool, windows int) ([]byte, probe.EventTotals) {
	t.Helper()
	m, err := NewMachine(cfg, scaledTWiCe(t, cfg, org), w)
	if err != nil {
		t.Fatal(err)
	}
	col, err := probe.NewCollector(telemetry, true, windows)
	if err != nil {
		t.Fatal(err)
	}
	rec := col.NewRecorder()
	m.SetRecorder(rec)
	if _, err := m.Run(lim); err != nil {
		t.Fatal(err)
	}
	return exportTrace(t, probe.CellLabel{Workload: w.Name, Defense: "twice"}, rec), rec.Totals()
}

// TestTimelineFlightRecorderInSim pins the -timeline-windows semantics on a
// real run: a ring of 2 tREFI windows retains only the run's newest two
// windows of events, drops the rest (counted, not silent), and the trace
// header reports the drops. The full-trace run of the same cell is the
// reference for how many events the ring gave up and where the run ends.
func TestTimelineFlightRecorderInSim(t *testing.T) {
	lim := Limits{MaxRequests: 2500, MaxTime: 20 * clock.Millisecond}
	cfg := twoChannelConfig()
	trefi := cfg.DRAM.TREFI
	fullBytes, _ := runTraceCell(t, cfg, core.PA, s1Workload(t, cfg), lim, false, 0)
	ringBytes, _ := runTraceCell(t, cfg, core.PA, s1Workload(t, cfg), lim, false, 2)
	fullDoc, ring := parseTrace(t, fullBytes), parseTrace(t, ringBytes)
	full := fullDoc.OtherData
	fullN, _, newest := fullDoc.retained(trefi)
	ringN, first, last := ring.retained(trefi)

	if full.Total <= 0 || full.Total != ring.OtherData.Total {
		t.Fatalf("total events: full %d, ring %d (want equal and nonzero)", full.Total, ring.OtherData.Total)
	}
	if full.Dropped != 0 || fullN != full.Total {
		t.Errorf("full trace holds %d of %d events (%d dropped), want all", fullN, full.Total, full.Dropped)
	}
	// The run spans many tREFI windows, so the ring must actually evict.
	if ring.OtherData.DroppedWindows == 0 {
		t.Fatalf("ring dropped no windows over a %v run with %v windows", lim.MaxTime, trefi)
	}
	if got := ringN + ring.OtherData.Dropped; got != ring.OtherData.Total || ringN >= fullN {
		t.Errorf("ring retained %d + dropped %d of %d events (full trace %d), want a truncated, fully counted trace",
			ringN, ring.OtherData.Dropped, ring.OtherData.Total, fullN)
	}
	if first < newest-1 || last != newest {
		t.Errorf("ring kept windows %d..%d; the run ends in window %d — not its tail", first, last, newest)
	}
}

// s3SweepWorkload runs S3 on core 0 next to S2's row sweep on core 1. S3
// alone gives detections, ARRs and nacks but keeps a single table entry;
// the sweep opens a fresh bank-0 row on every access, so the separated
// table prunes entries and spills fresh rows into its wide sub-table.
func s3SweepWorkload(t *testing.T, cfg Config) workload.Workload {
	t.Helper()
	m, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.S3(m, cfg.DRAM, 5000)
	w.Name = "S3+sweep"
	w.Gens = append(w.Gens, workload.S2(m, cfg.DRAM, 512).Gens[0])
	return w
}

// TestTraceMatchesTelemetryTotals pins the one-event-path invariant: the
// trace and the telemetry totals are updated by the same hook bodies, so a
// full trace of a run that fires every Kind holds exactly as many events of
// each Kind as the matching EventTotals field counts, and its prune
// instants carry every pruned entry. It also pins that a trace-only
// collector writes the same trace bytes as one that records telemetry too.
func TestTraceMatchesTelemetryTotals(t *testing.T) {
	cfg := scaledConfig()
	lim := Limits{MaxRequests: 20000, MaxTime: 20 * clock.Millisecond}
	data, tot := runTraceCell(t, cfg, core.Separated, s3SweepWorkload(t, cfg), lim, true, 0)
	traceOnly, _ := runTraceCell(t, cfg, core.Separated, s3SweepWorkload(t, cfg), lim, false, 0)
	if !bytes.Equal(data, traceOnly) {
		t.Error("a trace-only collector wrote different trace bytes than one recording telemetry")
	}
	if tot.Detections == 0 || tot.ARRs == 0 || tot.Nacks == 0 || tot.EntriesPruned == 0 || tot.Spills == 0 {
		t.Fatalf("the run must detect, refresh, nack, prune and spill: %+v", tot)
	}

	doc := parseTrace(t, data)
	if n, _, _ := doc.retained(cfg.DRAM.TREFI); doc.OtherData.Dropped != 0 || doc.OtherData.Total != n {
		t.Fatalf("full trace dropped events: header %+v, %d retained", doc.OtherData, n)
	}
	counts := map[string]int64{}
	var pruned int64
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
		case strings.HasPrefix(e.Name, "twice_occupancy "):
			counts["twice_occupancy"]++
		default:
			counts[e.Name]++
			if e.Name == "prune" {
				pruned += e.Args.Pruned
			}
		}
	}
	for _, k := range []struct {
		event string
		total int64
	}{
		{"ACT", tot.ACTs},
		{"ARR", tot.ARRs},
		{"ARR queued", tot.ARRsQueued},
		{"NACK", tot.Nacks},
		{"REQ", tot.Dequeues},
		{"spill", tot.Spills},
		{"twice_occupancy", tot.TableTicks},
		{"REF", tot.Refreshes},
		{"DETECT", tot.Detections},
	} {
		if counts[k.event] != k.total {
			t.Errorf("%s: %d trace events, telemetry counted %d", k.event, counts[k.event], k.total)
		}
	}
	if pruned != tot.EntriesPruned {
		t.Errorf("prune instants carry %d pruned entries, telemetry counted %d", pruned, tot.EntriesPruned)
	}
}
