package sim

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/workload"
)

// machineState captures every observable a run leaves behind: the Result
// plus the final per-bank disturbance state and counter-table contents.
type machineState struct {
	res     *Result
	tables  [][]core.Entry
	disturb [][]int
}

func captureState(t *testing.T, m *Machine, res *Result, tw *core.TWiCe) machineState {
	t.Helper()
	st := machineState{res: res}
	physRows := m.cfg.DRAM.RowsPerBank + m.cfg.DRAM.SpareRowsPerBank
	for _, b := range m.Device().Banks() {
		if tw != nil {
			snap := tw.TableFor(b.ID()).Snapshot()
			sort.Slice(snap, func(i, j int) bool { return snap[i].Row < snap[j].Row })
			st.tables = append(st.tables, snap)
		}
		rows := make([]int, physRows)
		for p := range rows {
			rows[p] = b.Disturbance(p)
		}
		st.disturb = append(st.disturb, rows)
	}
	return st
}

// reuseCell describes one grid cell of the equivalence test. before, when
// set, runs on the recycled machine ahead of the cell, to leave state the
// reuse must clear.
type reuseCell struct {
	name   string
	def    func(t *testing.T, cfg Config) defense.Defense
	w      func(t *testing.T, cfg Config) workload.Workload
	lim    Limits
	before func(m *Machine)
}

// arrEveryACT asks for an ARR on every row it sees activated.
type arrEveryACT struct{ defense.Nop }

func (arrEveryACT) OnActivate(_ dram.BankID, row int, _ clock.Time) defense.Action {
	return defense.Action{ARRAggressors: []int{row}}
}

// leaveARRPending files one ARR with the machine's RCD that no run serves,
// as a cell cut off by its limits with a detection unserved would.
func leaveARRPending(m *Machine) {
	r := m.sys.RCD()
	r.SetDefense(arrEveryACT{})
	r.ObserveACT(dram.BankID{}, 5000, 0)
}

// TestMachineReuseMatchesFresh is the machine-recycling contract: running a
// sequence of cells through one recycled Machine must leave behind exactly
// the state a fresh Machine per cell would — same Results byte for byte,
// same disturbance arrays, same counter tables. The sequence deliberately
// changes defense and workload between cells, crosses from a cache-bypassing
// workload to a cached one and back (hierarchy teardown/reuse), and repeats
// a cell so a table reused twice is covered. The last cell starts with an
// ARR left pending on the recycled machine, which the reuse must drop.
func TestMachineReuseMatchesFresh(t *testing.T) {
	cfg := scaledConfig()
	lim := Limits{MaxRequests: 8000, MaxTime: 20 * clock.Millisecond}
	cachedW := func(t *testing.T, cfg Config) workload.Workload {
		t.Helper()
		w, err := workload.SPECRate("mcf", 1, uint64(cfg.DRAM.TotalCapacityBytes()), 3)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cells := []reuseCell{
		{
			name: "s3-twice-pa",
			def:  func(t *testing.T, cfg Config) defense.Defense { return scaledTWiCe(t, cfg, core.PA) },
			w:    func(t *testing.T, cfg Config) workload.Workload { return s3Workload(t, cfg) },
			lim:  lim,
		},
		{
			name: "cached-nop",
			def:  func(*testing.T, Config) defense.Defense { return defense.Nop{} },
			w:    cachedW,
			lim:  lim,
		},
		{
			name: "s3-twice-fa",
			def:  func(t *testing.T, cfg Config) defense.Defense { return scaledTWiCe(t, cfg, core.FA) },
			w:    func(t *testing.T, cfg Config) workload.Workload { return s3Workload(t, cfg) },
			lim:  lim,
		},
		{
			name: "s3-twice-fa-again",
			def:  func(t *testing.T, cfg Config) defense.Defense { return scaledTWiCe(t, cfg, core.FA) },
			w:    func(t *testing.T, cfg Config) workload.Workload { return s3Workload(t, cfg) },
			lim:  lim,
		},
		{
			name:   "s3-twice-pa-arr-pending",
			def:    func(t *testing.T, cfg Config) defense.Defense { return scaledTWiCe(t, cfg, core.PA) },
			w:      func(t *testing.T, cfg Config) workload.Workload { return s3Workload(t, cfg) },
			lim:    lim,
			before: leaveARRPending,
		},
	}

	runner := NewCellRunner(cfg)
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			if cell.before != nil {
				cell.before(runner.m)
			}
			reDef := cell.def(t, cfg)
			reRes, err := runner.Run(reDef, cell.w(t, cfg), cell.lim)
			if err != nil {
				t.Fatal(err)
			}
			reTW, _ := reDef.(*core.TWiCe)
			reused := captureState(t, runner.m, reRes, reTW)

			frDef := cell.def(t, cfg)
			fresh, err := NewMachine(cfg, frDef, cell.w(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			frRes, err := fresh.Run(cell.lim)
			if err != nil {
				t.Fatal(err)
			}
			frTW, _ := frDef.(*core.TWiCe)
			want := captureState(t, fresh, frRes, frTW)

			if reused.res.Counters != want.res.Counters {
				t.Errorf("counters diverge:\n reused %+v\n fresh  %+v", reused.res.Counters, want.res.Counters)
			}
			if reused.res.SimTime != want.res.SimTime {
				t.Errorf("sim time diverges: %v vs %v", reused.res.SimTime, want.res.SimTime)
			}
			if reused.res.RCD != want.res.RCD {
				t.Errorf("RCD stats diverge:\n reused %+v\n fresh  %+v", reused.res.RCD, want.res.RCD)
			}
			if reused.res.L3 != want.res.L3 {
				t.Errorf("L3 stats diverge:\n reused %+v\n fresh  %+v", reused.res.L3, want.res.L3)
			}
			if !reflect.DeepEqual(reused.res.Flips, want.res.Flips) {
				t.Errorf("flip lists diverge: %d vs %d flips", len(reused.res.Flips), len(want.res.Flips))
			}
			if !reflect.DeepEqual(reused.res.DetectionsByCore, want.res.DetectionsByCore) {
				t.Errorf("detection attribution diverges:\n %v\n %v",
					reused.res.DetectionsByCore, want.res.DetectionsByCore)
			}
			if !reflect.DeepEqual(reused.tables, want.tables) {
				t.Error("counter-table contents diverge")
			}
			if !reflect.DeepEqual(reused.disturb, want.disturb) {
				t.Error("per-row disturbance state diverges")
			}
		})
	}
}
