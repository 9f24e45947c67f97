// Comparison: run every defense against the paper's three adversarial
// patterns (S1 random, S2 CBT-adversarial, S3 single-row hammer) and print
// the Figure 7(b)-style additional-activation table, reproducing the
// paper's headline ordering: TWiCe ≪ PARA ≪ CBT on attack patterns.
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"log"

	twice "repro"
	"repro/internal/clock"
)

func main() {
	cfg := twice.DefaultConfig(1)
	cfg = twice.ScaleWindow(cfg, clock.Millisecond, 8192)

	// Defenses, with TWiCe's threshold scaled like the window (thRH 2048
	// here corresponds to the paper's 32768 over 64 ms). Each run builds
	// its own, so no run inherits state an earlier one left in a defense.
	tcfg := twice.NewTWiCeConfig(cfg.DRAM)
	tcfg.ThRH = 2048
	defenses := []func() (twice.Defense, error){
		func() (twice.Defense, error) { return twice.NewPARA(0.001, cfg.DRAM, 11) },
		func() (twice.Defense, error) { return twice.NewPARA(0.002, cfg.DRAM, 13) },
		// CBT's top threshold scales with the 64×-shortened window
		// (32768/64 = 512): its split cascade depends on the threshold-to-
		// window-activations ratio, so this keeps its dynamics faithful.
		func() (twice.Defense, error) { return twice.NewCBTThreshold(cfg.DRAM, 512) },
		func() (twice.Defense, error) { return twice.NewTWiCeWith(tcfg) },
	}

	workloads := map[string]func() (twice.Workload, error){
		"S1": func() (twice.Workload, error) { return twice.WorkloadS1(cfg, 1) },
		"S2": func() (twice.Workload, error) { return twice.WorkloadS2(cfg, 512) },
		"S3": func() (twice.Workload, error) { return twice.WorkloadS3(cfg, 5000) },
	}

	fmt.Printf("%-6s %-12s %14s %12s %8s %6s\n", "wl", "defense", "extra ACTs", "ratio", "detect", "flips")
	for _, wname := range []string{"S1", "S2", "S3"} {
		for _, newDef := range defenses {
			def, err := newDef()
			if err != nil {
				log.Fatal(err)
			}
			w, err := workloads[wname]()
			if err != nil {
				log.Fatal(err)
			}
			res, err := twice.Run(cfg, def, w, twice.Requests(250000))
			if err != nil {
				log.Fatal(err)
			}
			c := res.Counters
			fmt.Printf("%-6s %-12s %14d %11.4f%% %8d %6d\n",
				wname, res.Defense, c.DefenseACTs, 100*c.AdditionalACTRatio(),
				c.Detections, len(res.Flips))
		}
	}
	fmt.Println("\npaper shape: TWiCe adds ~0 on S1/S2 and 2/thRH on S3;")
	fmt.Println("PARA-p adds ≈ p everywhere but protects only probabilistically")
	fmt.Println("(any flips above appear in PARA rows); CBT bursts on S3 here —")
	fmt.Println("its S2 weakness needs the full 64 ms window to set up, see")
	fmt.Println("`go run ./cmd/paperrepro -scale paper -only fig7b`.")
}
