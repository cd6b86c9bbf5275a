// Tuning-sweep runs the paper's staged tuning methodology at 96 GPUs
// and shows how each stage (MPI library → fusion threshold → cycle
// time → allreduce shape → chunk size) moves throughput, printing the
// final job-script environment.
package main

import (
	"fmt"
	"log"

	"segscale/internal/core"
	"segscale/pkg/summitseg"
)

func main() {
	log.SetFlags(0)

	prof, err := summitseg.ModelByName("dlv3plus")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := summitseg.Tune(96, prof, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Staged Horovod/MPI tuning at 96 GPUs on DLv3+:")
	fmt.Printf("%-18s %10s %8s\n", "stage", "img/s", "eff")
	bestSoFar := 0.0
	for _, ev := range rep.Trace {
		marker := " "
		if ev.Efficiency > bestSoFar {
			bestSoFar = ev.Efficiency
			marker = "*"
		}
		fmt.Printf("%-18s %10.1f %7.1f%% %s %s\n",
			ev.Stage, ev.Result.ImgPerSec, 100*ev.Efficiency, marker, ev.Candidate.Label())
	}

	fmt.Printf("\n%d simulator runs; best configuration:\n  %s\n", rep.Evals, rep.Best.Candidate.Label())
	fmt.Printf("baseline → best: %.1f → %.1f img/s (%.2f×)\n",
		rep.Baseline.Result.ImgPerSec, rep.Best.Result.ImgPerSec, rep.Speedup())
	fmt.Println("\njob-script environment:")
	best := rep.Best.Candidate
	for _, e := range (core.Knobs{Horovod: &best.Horovod, MPI: best.MPI}).Render(false) {
		fmt.Println("  export " + e)
	}
}
