// Command hvd-tune runs the paper's staged tuning methodology at a
// given scale and prints the evaluation trace, the best configuration
// (as HOROVOD_*/MV2_* environment assignments ready for a job
// script), and the headline improvement over default Horovod.
//
// Usage:
//
//	hvd-tune [-gpus 132] [-model dlv3plus] [-seed 1] [-trace]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"segscale/internal/core"
	"segscale/internal/jobscript"
	"segscale/pkg/summitseg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hvd-tune: ")

	gpus := flag.Int("gpus", 132, "GPU count to tune at")
	modelName := flag.String("model", "dlv3plus", "model profile")
	seed := flag.Int64("seed", 1, "simulation seed")
	showTrace := flag.Bool("trace", false, "print every evaluation")
	jobOut := flag.String("jobscript", "", "write an LSF/jsrun batch script for the best config to this file")
	flag.Parse()

	prof, err := summitseg.ModelByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := summitseg.Tune(*gpus, prof, *seed)
	if err != nil {
		log.Fatal(err)
	}

	if *showTrace {
		fmt.Printf("%-18s %10s %8s   %s\n", "STAGE", "img/s", "eff", "candidate")
		for _, ev := range rep.Trace {
			fmt.Printf("%-18s %10.1f %7.1f%%   %s\n",
				ev.Stage, ev.Result.ImgPerSec, 100*ev.Efficiency, ev.Candidate.Label())
		}
		fmt.Println()
	}

	fmt.Printf("tuning at %d GPUs on %s (%d simulator runs)\n", *gpus, prof.Name, rep.Evals)
	fmt.Printf("baseline (default Horovod + Spectrum): %8.1f img/s, %5.1f%% efficiency\n",
		rep.Baseline.Result.ImgPerSec, 100*rep.Baseline.Efficiency)
	fmt.Printf("best:   %s\n", rep.Best.Candidate.Label())
	fmt.Printf("        %8.1f img/s, %5.1f%% efficiency\n", rep.Best.Result.ImgPerSec, 100*rep.Best.Efficiency)
	fmt.Printf("improvement: %+.1f%% efficiency, %.2f× speedup\n",
		100*(rep.Improvement()-1), rep.Speedup())
	grid := core.DefaultSpace().GridSize()
	fmt.Printf("search cost if run on the real machine: %.1f GPU-hours (%d evals; exhaustive grid: %d)\n",
		rep.CostGPUHours(), rep.Evals, grid)
	fmt.Println("\njob-script environment for the best configuration:")
	job := jobscript.FromConfig("dlv3-tuned", *gpus, rep.Best.Candidate.MPI, rep.Best.Candidate.Horovod)
	for _, e := range job.Env {
		fmt.Println("  export " + e)
	}

	if *jobOut != "" {
		script, err := job.LSF()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jobOut, []byte(script), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nbatch script written to %s (bsub %s)\n", *jobOut, *jobOut)
	}
}
