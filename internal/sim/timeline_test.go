package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/probe"
	"repro/internal/timeline"
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

// runTimelineCell runs one TWiCe cell with a timeline recorder attached as
// the probe sink and returns the rendered Chrome trace plus the recorder
// itself. tlCfg lets flight-recorder cases bound the ring.
func runTimelineCell(t *testing.T, cfg Config, lim Limits, tlCfg timeline.Config) ([]byte, *timeline.Recorder) {
	t.Helper()
	m, err := NewMachine(cfg, scaledTWiCe(t, cfg, core.PA), s1Workload(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	var g timeline.Grid
	g.Config = tlCfg
	g.Start(1)
	tl := g.NewRecorder()
	rec := probe.NewRecorder(probe.Config{})
	rec.SetSink(tl)
	m.SetRecorder(rec)
	if _, err := m.Run(lim); err != nil {
		t.Fatal(err)
	}
	g.Record(0, "S1", "twice", tl)
	var buf bytes.Buffer
	if err := g.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tl
}

// TestTimelineFlightRecorderInSim pins the -timeline-windows semantics on a
// real run: a ring of 2 tREFI windows retains at most the newest two windows
// of events, drops the rest (counted, not silent), and the trace header
// reports the drops. The full-trace run of the same cell is the reference
// for how many events the ring gave up.
func TestTimelineFlightRecorderInSim(t *testing.T) {
	lim := Limits{MaxRequests: 2500, MaxTime: 20 * clock.Millisecond}
	trefi := DefaultConfig(1).DRAM.TREFI
	cfg := twoChannelConfig()

	full, fullRec := runTimelineCell(t, cfg, lim, timeline.Config{})
	ring, ringRec := runTimelineCell(t, cfg, lim, timeline.Config{Windows: 2})

	if fullRec.Total() != ringRec.Total() {
		t.Fatalf("total events diverge: full %d, ring %d", fullRec.Total(), ringRec.Total())
	}
	if fullRec.Total() <= 0 {
		t.Fatal("run recorded no events; harness is broken")
	}
	// The run spans many tREFI windows, so the ring must actually evict.
	if ringRec.DroppedWindows() == 0 {
		t.Fatalf("ring dropped no windows over a %v run with %v windows", lim.MaxTime, trefi)
	}
	if got, want := int64(ringRec.Retained())+ringRec.DroppedEvents(), ringRec.Total(); got != want {
		t.Errorf("retained+dropped = %d, want total %d", got, want)
	}
	if ringRec.Retained() >= fullRec.Retained() {
		t.Errorf("ring retained %d events, full trace %d — ring did not truncate", ringRec.Retained(), fullRec.Retained())
	}
	// Retained windows are the newest ones: every ring window index must be
	// >= the highest full-trace index minus the ring size.
	fullIdx := fullRec.WindowIndexes()
	ringIdx := ringRec.WindowIndexes()
	if len(ringIdx) == 0 || len(ringIdx) > 2 {
		t.Fatalf("ring window count = %d, want 1..2", len(ringIdx))
	}
	newest := fullIdx[len(fullIdx)-1]
	for _, idx := range ringIdx {
		if idx < newest-1 {
			t.Errorf("ring kept window %d; newest is %d — not the tail of the run", idx, newest)
		}
	}
	// Header accounting must surface the truncation to trace consumers.
	if !bytes.Contains(ring, []byte(fmt.Sprintf(`"dropped_events":"%d"`, ringRec.DroppedEvents()))) {
		t.Error("ring trace header does not report dropped_events")
	}
	if !json.Valid(ring) || !json.Valid(full) {
		t.Error("trace output is not valid JSON")
	}
}
