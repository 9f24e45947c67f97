// Quickstart: build the paper's Table 4 machine, attach TWiCe, run the
// classic single-row row-hammer attack (workload S3), and read the report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	twice "repro"
	"repro/internal/clock"
)

func main() {
	// The Table 4 machine. For a fast demo, shrink the 64 ms refresh
	// window to 1 ms and scale the row-hammer threshold with it; every
	// ratio below is unchanged by the scaling.
	cfg := twice.DefaultConfig(1)
	cfg = twice.ScaleWindow(cfg, clock.Millisecond, 2048)

	// The paper's defense: a TWiCe table per bank, here with the detection
	// threshold scaled like the window (paper: thRH = 32768 over 64 ms).
	tcfg := twice.NewTWiCeConfig(cfg.DRAM)
	tcfg.ThRH = 512
	def, err := twice.NewTWiCeWith(tcfg)
	if err != nil {
		log.Fatal(err)
	}

	// Hammer row 5000 of bank 0 as fast as DRAM timing allows.
	attack, err := twice.WorkloadS3(cfg, 5000)
	if err != nil {
		log.Fatal(err)
	}

	res, err := twice.Run(cfg, def, attack, twice.Requests(300000))
	if err != nil {
		log.Fatal(err)
	}

	c := res.Counters
	fmt.Printf("simulated %v of a row-hammer attack under %s\n", res.SimTime, res.Defense)
	fmt.Printf("  %d row activations, %d added by the defense (%.4f%%)\n",
		c.NormalACTs, c.DefenseACTs, 100*c.AdditionalACTRatio())
	fmt.Printf("  %d aggressor detections -> %d adjacent-row-refresh commands\n",
		c.Detections, c.ARRs)
	fmt.Printf("  %d commands nacked while ARRs occupied the rank\n", c.Nacks)
	fmt.Printf("  bit flips: %d (the attack fails)\n", len(res.Flips))

	// The same attack with no defense flips bits.
	attack, err = twice.WorkloadS3(cfg, 5000)
	if err != nil {
		log.Fatal(err)
	}
	undefended, err := twice.Run(cfg, twice.NoDefense(), attack, twice.Requests(300000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithout a defense the same attack flips %d rows ", len(undefended.Flips))
	if len(undefended.Flips) > 0 {
		f := undefended.Flips[0]
		fmt.Printf("(first: physical row %d of %v at %v)", f.PhysRow, f.Bank, f.Time)
	}
	fmt.Println()
}
