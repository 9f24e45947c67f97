package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/timeline"
)

// exportBytes renders a collector's CSV and JSONL exports.
func exportBytes(t *testing.T, col *probe.Collector) ([]byte, []byte) {
	t.Helper()
	var c, j bytes.Buffer
	if err := col.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), j.Bytes()
}

// TestTelemetrySerialParallelByteIdentity is the telemetry arm of the
// parallel-equivalence claim: the Figure 7(b) grid run serially and on a
// contended pool must export byte-identical telemetry CSV and JSONL, because
// each cell's recorder is keyed to simulated time and recorded by job index.
func TestTelemetrySerialParallelByteIdentity(t *testing.T) {
	s := tinyScale()
	s.Requests = 6000

	serial, par := s, s
	serial.Parallel = 1
	serial.Telemetry = &probe.Collector{}
	par.Parallel = 4
	par.Telemetry = &probe.Collector{}

	if _, err := Figure7b(serial); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure7b(par); err != nil {
		t.Fatal(err)
	}
	if got, want := par.Telemetry.Cells(), serial.Telemetry.Cells(); got != want || got == 0 {
		t.Fatalf("recorded cells: parallel %d, serial %d (want equal and nonzero)", got, want)
	}
	serialCSV, serialJSON := exportBytes(t, serial.Telemetry)
	parCSV, parJSON := exportBytes(t, par.Telemetry)
	if !bytes.Equal(serialCSV, parCSV) {
		t.Error("telemetry CSV differs between serial and parallel runs")
	}
	if !bytes.Equal(serialJSON, parJSON) {
		t.Error("telemetry JSONL differs between serial and parallel runs")
	}
}

// TestProgressDoesNotChangeCSV is the "observers are not semantic" contract
// at grid level: a serial run with nothing attached and a two-worker run with
// a progress hook (and a live meter behind it), a telemetry collector and a
// flight-recorder timeline must produce the same cells and the same result
// CSV to the byte, while every observer sees all 12 cells.
func TestProgressDoesNotChangeCSV(t *testing.T) {
	s := tinyScale()
	s.Requests = 6000
	s.Parallel = 1

	bare, err := Figure7b(s)
	if err != nil {
		t.Fatal(err)
	}

	s.Parallel = 2
	s.Telemetry = &probe.Collector{}
	s.Timeline = &timeline.Grid{Config: timeline.Config{Windows: 4}}

	var mu sync.Mutex
	var calls, lastDone, total int
	var meter bytes.Buffer
	clk := time.Unix(1000, 0)
	p := probe.NewProgress(&meter, "fig7b", func() time.Time { return clk })
	s.Progress = func(done, tot int) {
		mu.Lock()
		calls++
		if done > lastDone {
			lastDone = done
		}
		total = tot
		mu.Unlock()
		p.Update(done, tot)
	}
	metered, err := Figure7b(s)
	if err != nil {
		t.Fatal(err)
	}
	p.Finish()

	var bareCSV, meteredCSV bytes.Buffer
	if err := WriteCellsCSV(&bareCSV, bare); err != nil {
		t.Fatal(err)
	}
	if err := WriteCellsCSV(&meteredCSV, metered); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, metered) {
		t.Error("cells changed when observers were attached")
	}
	if !bytes.Equal(bareCSV.Bytes(), meteredCSV.Bytes()) {
		t.Error("stdout CSV changed when observers were attached")
	}
	if got := s.Telemetry.Cells(); got != 12 {
		t.Errorf("collector recorded %d cells, want 12", got)
	}
	if got := s.Timeline.Cells(); got != 12 {
		t.Errorf("timeline recorded %d cells, want 12", got)
	}
	if calls == 0 || lastDone != total || total == 0 {
		t.Errorf("progress hook saw %d calls, max done %d of total %d", calls, lastDone, total)
	}
	if meter.Len() == 0 {
		t.Error("meter rendered nothing")
	}
}
