package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// runChild runs one phase of one workload in this process and prints
// its result as one JSON line. It exits non-zero only when the harness
// itself cannot run; a failed output check is part of the result.
func runChild(o options) int {
	w := workloadByName(o.workload)
	if w == nil {
		fatalf("child: unknown workload %q", o.workload)
	}
	spawn := time.Unix(0, o.spawnNS)
	if o.spawnNS == 0 {
		spawn = time.Now()
	}
	res := newResult(w.name)
	var err error
	switch {
	case o.child == "setup":
		err = childSetup(w, o, spawn, res)
	case o.child == "run" && w.isTrain():
		err = childTrain(w, o, spawn, res)
	case o.child == "run":
		err = childSim(o, simSweeps, spawn, res)
	case o.child == "trace" && w.isTrain():
		err = traceTrain(w, o, fullRepeats, res)
	case o.child == "trace":
		err = traceSim(o, fullRepeats, res)
	default:
		err = fmt.Errorf("unknown child mode %q", o.child)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: child %s %s: %v\n", o.child, w.name, err)
		return 2
	}
	return emit(res)
}

func emit(res *result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: child: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// childSetup reports set-up time alone: process start → first step
// notification (profiles loaded, for the simulator). It returns there,
// with the ranks mid-step, and the process ends under them, so nothing
// past set-up is paid for.
func childSetup(w *workload, o options, spawn time.Time, res *result) error {
	if !w.isTrain() {
		if _, err := newSweeper(); err != nil {
			return err
		}
		res.set("setup_s", time.Since(spawn).Seconds())
		return nil
	}
	cfg, err := w.config(variantFull, o.seed, o.dir)
	if err != nil {
		return err
	}
	first := make(chan time.Duration, 1)
	done := make(chan error, 1)
	go func() {
		done <- runTrain(cfg, spawn, func(setup time.Duration) { first <- setup }).err
	}()
	select {
	case setup := <-first:
		res.set("setup_s", setup.Seconds())
		return nil
	case err := <-done:
		return fmt.Errorf("train returned before the first step: %v", err)
	}
}

// childTrain is the untraced measured run of a train workload.
func childTrain(w *workload, o options, spawn time.Time, res *result) error {
	cfg, err := w.config(variantFull, o.seed, o.dir)
	if err != nil {
		return err
	}
	r := runTrain(cfg, spawn, nil)
	r.addTrainMetrics(w, res)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	return nil
}
