// Telemetry: regenerate a Figure 5-style occupancy trajectory with the probe
// layer. A DDR4-2400 machine at the paper's parameters (thRH = 32768,
// tREFW = 64 ms) runs a 16-sided hammer next to a benign uniform-random
// tenant with a probe.Recorder attached; every tREFI the TWiCe engine prunes
// its table and the recorder samples the surviving entry count per bank. The
// trajectory shows §4.2 at work: benign rows enter the table and are pruned
// at the next checkpoint (count < thPI), while the sustained aggressors
// survive every pass, so occupancy plateaus at the aggressor count — far
// under the paper's 553-entry bound (§4.4). The per-tREFI series is written
// to occupancy.csv: plot `t_us` against `max_occupancy` for the Figure 5
// curve, with `pruned` showing the per-pass eviction volume.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"log"
	"os"

	twice "repro"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/sim"
)

func main() {
	cfg := twice.DefaultConfig(2)
	ccfg := core.NewConfig(cfg.DRAM)
	tw, err := core.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}

	// Core 0 rotates a 16-sided hammer (each aggressor stays above thPI per
	// tREFI, so its entry is never pruned); core 1 sprays uniform-random
	// benign traffic whose rows are pruned at the first checkpoint.
	attack, err := twice.WorkloadManySided(cfg, 5000, 16)
	if err != nil {
		log.Fatal(err)
	}
	noise, err := twice.WorkloadS1(cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	w := twice.Workload{
		Name:        "16-sided+uniform-noise",
		BypassCache: true,
		Gens:        append(attack.Gens[:1:1], noise.Gens[0]),
	}

	m, err := sim.NewMachine(cfg, tw, w)
	if err != nil {
		log.Fatal(err)
	}
	rec := probe.NewRecorder()
	m.SetRecorder(rec)

	res, err := m.Run(sim.Limits{MaxRequests: 400000, MaxTime: 4 * clock.Millisecond})
	if err != nil {
		log.Fatal(err)
	}

	// Bucket the raw samples by tREFI window: the recorder emits one
	// OccSample per bank per prune tick, and the per-bank ticks are staggered
	// inside each tREFI, so grouping by window index lines the banks up.
	// Figure 5 plots the worst-case bank, so each bucket keeps the maximum
	// post-prune occupancy across banks plus the total entries pruned.
	type pass struct {
		idx    clock.Time
		maxOcc int
		pruned int
	}
	var passes []pass
	for _, s := range rec.OccupancySeries() {
		idx := s.T / cfg.DRAM.TREFI
		if len(passes) == 0 || passes[len(passes)-1].idx != idx {
			passes = append(passes, pass{idx: idx})
		}
		p := &passes[len(passes)-1]
		if s.Occupancy > p.maxOcc {
			p.maxOcc = s.Occupancy
		}
		p.pruned += s.Pruned
	}

	f, err := os.Create("occupancy.csv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(f, "t_us,max_occupancy,pruned")
	for _, p := range passes {
		t := p.idx * cfg.DRAM.TREFI
		fmt.Fprintf(f, "%.3f,%d,%d\n", float64(t)/float64(clock.Microsecond), p.maxOcc, p.pruned)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	tot := rec.Totals()
	fmt.Printf("ran %v of 16-sided hammer + benign noise: %d ACTs, %d prune passes, %d entries pruned\n",
		res.SimTime, tot.ACTs, len(passes), tot.EntriesPruned)
	fmt.Printf("max table occupancy: %d entries (paper bound 553, derived bound %d)\n",
		rec.MaxOccupancy(), ccfg.TableBound())
	if rec.MaxOccupancy() > ccfg.TableBound() {
		log.Fatalf("occupancy %d exceeds the derived %d-entry bound", rec.MaxOccupancy(), ccfg.TableBound())
	}
	fmt.Println("wrote occupancy.csv — plot t_us vs max_occupancy for the Figure 5 trajectory")
}
