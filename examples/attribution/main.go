// Attribution: the capability that separates counter-based defenses from
// probabilistic ones (Table 1 of the paper). A multi-tenant machine runs
// three benign SPEC-like tenants next to one row-hammer attacker; TWiCe not
// only stops the attack but tells the system *which core* mounted it, so the
// OS can terminate or penalise the offender (§1). PARA, run on the same
// scenario, detects nothing and attributes nothing; at this scaled-down
// flip threshold it does not even stop every flip, since its protection is
// only probabilistic.
//
//	go run ./examples/attribution
package main

import (
	"fmt"
	"log"

	twice "repro"
	"repro/internal/clock"
	"repro/internal/workload"
)

func main() {
	cfg := twice.DefaultConfig(4)
	cfg = twice.ScaleWindow(cfg, clock.Millisecond, 2048)

	tcfg := twice.NewTWiCeConfig(cfg.DRAM)
	tcfg.ThRH = 512
	tw, err := twice.NewTWiCeWith(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := twice.Run(cfg, tw, tenantsAndAttacker(cfg), twice.Requests(400000))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ran %v of 3 benign tenants + 1 attacker under %s\n\n", res.SimTime, res.Defense)
	fmt.Printf("detections: %d, ARRs: %d, bit flips: %d\n\n",
		res.Counters.Detections, res.Counters.ARRs, len(res.Flips))

	fmt.Println("per-core attribution:")
	for c := 0; c < 4; c++ {
		role := "benign tenant"
		if c == 3 {
			role = "attacker"
		}
		fmt.Printf("  core %d (%-13s): %d detections\n", c, role, res.DetectionsByCore[c])
	}

	// The same scenario under PARA: the system learns nothing about who
	// attacked, and the probabilistic refreshes may miss a victim.
	pa, err := twice.NewPARA(0.002, cfg.DRAM, 7)
	if err != nil {
		log.Fatal(err)
	}
	paRes, err := twice.Run(cfg, pa, tenantsAndAttacker(cfg), twice.Requests(400000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunder %s: %d detections — the attack is invisible to the system\n",
		paRes.Defense, paRes.Counters.Detections)
	fmt.Printf("bit flips under %s: %d\n", paRes.Defense, len(paRes.Flips))
}

// tenantsAndAttacker builds the scenario: cores 0-2 run benign
// memory-intensive tenants, each in its own quarter of memory, and core 3
// hammers row 5000. Each run needs a fresh copy, since a run advances the
// generators.
func tenantsAndAttacker(cfg twice.Config) twice.Workload {
	mem := uint64(cfg.DRAM.TotalCapacityBytes())
	w := twice.Workload{Name: "tenants+attacker", BypassCache: true}
	for i, app := range []string{"mcf", "lbm", "omnetpp"} {
		prof, err := workload.ProfileByName(app)
		if err != nil {
			log.Fatal(err)
		}
		base := uint64(i) * (mem / 4)
		w.Gens = append(w.Gens, workload.NewSPECLike(prof, base, mem/4, int64(i+1)))
	}
	attacker, err := twice.WorkloadS3(cfg, 5000)
	if err != nil {
		log.Fatal(err)
	}
	w.Gens = append(w.Gens, attacker.Gens[0])
	return w
}
