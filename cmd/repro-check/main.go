// Command repro-check is the reproduction's self-test: it reruns the
// headline experiments of internal/core's registry and grades each
// against the band the paper's abstract implies, printing PASS/FAIL
// rows and exiting non-zero on any failure. CI for the science, not
// just the code.
//
// Usage:
//
//	repro-check [-seed 1] [-accuracy] (accuracy adds ~20 s of real training)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"segscale/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro-check: ")
	seed := flag.Int64("seed", 1, "simulation seed")
	accuracy := flag.Bool("accuracy", false, "include the real-training accuracy check (~20 s)")
	flag.Parse()

	// The abstract's order: single-GPU anchors, headline scaling
	// numbers, microbenchmark ordering, then accuracy.
	ids := []string{"f1", "f7", "f2"}
	if *accuracy {
		ids = append(ids, "acc")
	}
	failed, total := 0, 0
	fmt.Printf("%-52s %-6s %s\n", "CHECK (paper claim)", "STATUS", "measured")
	for _, id := range ids {
		e, err := core.Lookup(id)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e.Run(*seed, false)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		for _, b := range e.Bands {
			pass, detail := b.Grade(res.Values)
			status := "PASS"
			if !pass {
				status = "FAIL"
				failed++
			}
			total++
			fmt.Printf("%-52s %-6s %s\n", b.Claim, status, detail)
		}
	}
	if failed > 0 {
		fmt.Printf("\n%d of %d checks failed\n", failed, total)
		os.Exit(1)
	}
	fmt.Printf("\nall %d checks pass — the reproduction tracks the paper\n", total)
}
