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

// channelGridConfig builds the quick-scale config with the requested channel
// count, page policy, and write buffering. Two cores keep cross-core
// detection attribution in play.
func channelGridConfig(channels int, pol mc.PagePolicy, buffered bool) Config {
	cfg := DefaultConfig(2)
	cfg.DRAM.Channels = channels
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	cfg.MC.PagePolicy = pol
	if !buffered {
		cfg.MC.WriteQueueDepth = 0
	}
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
	labels := []probe.CellLabel{{Workload: "S1", Defense: defKind}}
	var csv, jsonl bytes.Buffer
	if err := probe.WriteCSV(&csv, labels, []probe.Snapshot{st.snap}); err != nil {
		t.Fatal(err)
	}
	if err := probe.WriteJSONL(&jsonl, labels, []probe.Snapshot{st.snap}); err != nil {
		t.Fatal(err)
	}
	st.csv, st.jsonl = csv.Bytes(), jsonl.Bytes()
	return st
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
// write-buffering × defense cell the way a -parallel grid does — several
// copies at once on a two-worker parallel.Runner, each worker slot recycling
// one CellRunner — and requires every copy to be byte-identical to a serial
// run of the cell on a fresh Machine: same Result, same telemetry, same
// serialized exports. Three jobs on two slots guarantee that at least one
// copy runs on a recycled machine while another machine runs concurrently,
// so state shared between machines, or left behind by a previous run on any
// channel, shows up as a divergence.
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
			for _, buffered := range []bool{true, false} {
				for _, defKind := range []string{"twice", "para", "trr", "ideal"} {
					// Write buffering doesn't interact with TRR or the ideal
					// counters, so one buffering mode covers them.
					if !buffered && (defKind == "trr" || defKind == "ideal") {
						continue
					}
					wq := "wq"
					if !buffered {
						wq = "nowq"
					}
					name := fmt.Sprintf("ch%d/%s/%s/%s", channels, pol.name, wq, defKind)
					t.Run(name, func(t *testing.T) {
						cfg := channelGridConfig(channels, pol.pol, buffered)

						m, err := NewMachine(cfg, gridDefense(t, cfg, defKind), s1Workload(t, cfg))
						if err != nil {
							t.Fatal(err)
						}
						rec := probe.NewRecorder(probe.Config{})
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
							recs[i] = probe.NewRecorder(probe.Config{})
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
}
