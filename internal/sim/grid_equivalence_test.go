package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/defense/ideal"
	"repro/internal/defense/para"
	"repro/internal/defense/trr"
	"repro/internal/mc"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/workload"
)

// gridConfig builds the quick-scale config with the requested channel count
// and page policy. Two cores keep cross-core detection attribution in play.
func gridConfig(channels int, pol mc.PagePolicy) Config {
	cfg := DefaultConfig(2)
	cfg.DRAM.Channels = channels
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	cfg.MC.PagePolicy = pol
	return cfg
}

// gridDefense builds a fresh defense of the given kind for one run.
func gridDefense(t *testing.T, cfg Config, kind string) defense.Defense {
	t.Helper()
	switch kind {
	case "twice":
		return scaledTWiCe(t, cfg, core.PA)
	case "para":
		pa, err := para.New(0.01, cfg.DRAM, 7)
		if err != nil {
			t.Fatal(err)
		}
		return pa
	case "trr":
		tr, err := trr.New(trr.NewConfig(cfg.DRAM))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	case "ideal":
		id, err := ideal.New(ideal.NewConfig(cfg.DRAM))
		if err != nil {
			t.Fatal(err)
		}
		return id
	default:
		t.Fatalf("unknown defense kind %q", kind)
		return nil
	}
}

// gridRunState is everything one run leaves behind that an observer could
// compare: the full Result, the telemetry snapshot, and its serialized
// exports.
type gridRunState struct {
	res        *Result
	snap       probe.Snapshot
	csv, jsonl []byte
}

func exportGridState(t *testing.T, res *Result, rec *probe.Recorder, defKind string) gridRunState {
	t.Helper()
	st := gridRunState{res: res, snap: rec.Snapshot()}
	st.csv, st.jsonl = exportCell(t, probe.CellLabel{Workload: "S1", Defense: defKind}, rec)
	return st
}

// exportCell renders one recorder's telemetry as a one-cell collector
// exports it.
func exportCell(t *testing.T, label probe.CellLabel, rec *probe.Recorder) (csv, jsonl []byte) {
	t.Helper()
	var col probe.Collector
	col.Start(1)
	col.Record(0, label, rec)
	var c, j bytes.Buffer
	if err := col.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), j.Bytes()
}

// compareGridRuns asserts two runs are observationally identical: full
// Result (counters, sim time, flips, RCD stats, detection attribution, L3),
// telemetry snapshot, and byte-identical CSV/JSONL exports.
func compareGridRuns(t *testing.T, what string, serial, got gridRunState) {
	t.Helper()
	if !reflect.DeepEqual(serial.res, got.res) {
		t.Errorf("%s: results diverge:\n serial %+v\n got    %+v", what, serial.res, got.res)
	}
	if !reflect.DeepEqual(serial.snap, got.snap) {
		t.Errorf("%s: telemetry snapshots diverge:\n serial %+v\n got    %+v", what, serial.snap.Events, got.snap.Events)
	}
	if !bytes.Equal(serial.csv, got.csv) {
		t.Errorf("%s: telemetry CSV differs from the serial run", what)
	}
	if !bytes.Equal(serial.jsonl, got.jsonl) {
		t.Errorf("%s: telemetry JSONL differs from the serial run", what)
	}
}

// TestChannelParallelEquivalence runs every channel count × page policy ×
// defense cell the way a -parallel grid does — several copies at once on a
// two-worker parallel.Runner, each worker slot recycling one CellRunner —
// and requires every copy to be byte-identical to a serial run of the cell
// on a fresh Machine: same Result, same telemetry, same serialized exports.
// Three jobs on two slots guarantee that at least one copy runs on a
// recycled machine while another machine runs concurrently, so state shared
// between machines, or left behind by a previous run on any channel, shows
// up as a divergence. The test and its case paths keep the names they had
// when channels also ran in parallel and writes could bypass the buffer, so
// their ids stay stable: every case's "wq" level is the controller's write
// buffer, which every configuration now has.
func TestChannelParallelEquivalence(t *testing.T) {
	policies := []struct {
		name string
		pol  mc.PagePolicy
	}{
		{"open", mc.OpenPage},
		{"closed", mc.ClosedPage},
		{"minopen", mc.MinimalistOpen},
	}
	lim := Limits{MaxRequests: 2500, MaxTime: 20 * clock.Millisecond}
	const copies, workers = 3, 2
	for _, channels := range []int{1, 2, 4} {
		for _, pol := range policies {
			for _, defKind := range []string{"twice", "para", "trr", "ideal"} {
				t.Run(fmt.Sprintf("ch%d/%s/wq/%s", channels, pol.name, defKind), func(t *testing.T) {
					cfg := gridConfig(channels, pol.pol)

					m, err := NewMachine(cfg, gridDefense(t, cfg, defKind), s1Workload(t, cfg))
					if err != nil {
						t.Fatal(err)
					}
					rec := probe.NewRecorder()
					m.SetRecorder(rec)
					res, err := m.Run(lim)
					if err != nil {
						t.Fatal(err)
					}
					serial := exportGridState(t, res, rec, defKind)

					// Inputs are built up front: t.Fatal must not run on a
					// worker goroutine.
					defs := make([]defense.Defense, copies)
					loads := make([]workload.Workload, copies)
					recs := make([]*probe.Recorder, copies)
					for i := range defs {
						defs[i] = gridDefense(t, cfg, defKind)
						loads[i] = s1Workload(t, cfg)
						recs[i] = probe.NewRecorder()
					}
					r := parallel.Runner{Workers: workers}
					runners := make([]*CellRunner, r.PoolSize(copies))
					for i := range runners {
						runners[i] = NewCellRunner(cfg)
					}
					results, err := parallel.Map(r, copies, func(worker, i int) (*Result, error) {
						runners[worker].SetRecorder(recs[i])
						return runners[worker].Run(defs[i], loads[i], lim)
					})
					if err != nil {
						t.Fatal(err)
					}
					for i, res := range results {
						compareGridRuns(t, fmt.Sprintf("copy %d", i), serial, exportGridState(t, res, recs[i], defKind))
					}
				})
			}
		}
	}
}
